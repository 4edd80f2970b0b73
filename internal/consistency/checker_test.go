package consistency

import (
	"testing"
)

// seqOps builds a history of non-overlapping ops in the given order.
func seqHistory(ops []Op) History {
	t := int64(0)
	for i := range ops {
		t++
		ops[i].Call = t
		t++
		if ops[i].Out == OutMaybe {
			ops[i].Ret = RetInfinity
		} else {
			ops[i].Ret = t
		}
	}
	return History{Ops: ops}
}

func mustPass(t *testing.T, h History) {
	t.Helper()
	res := CheckLinearizable(h, RegisterModel{}, 0)
	if !res.Ok || res.Exhausted {
		t.Fatalf("history rejected: %v", res)
	}
}

func mustFail(t *testing.T, h History) {
	t.Helper()
	res := CheckLinearizable(h, RegisterModel{}, 0)
	if res.Ok {
		t.Fatal("bad history accepted")
	}
}

func TestRegisterSequentialLifecycle(t *testing.T) {
	mustPass(t, seqHistory([]Op{
		{Proc: 0, Kind: KindGet, Key: "k", Out: OutNotFound},
		{Proc: 0, Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Proc: 0, Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("a"), Ver: 10},
		{Proc: 0, Kind: KindCas, Key: "k", Arg: []byte("b"), Expect: 10, Out: OutOK, Ver: 20},
		{Proc: 0, Kind: KindCas, Key: "k", Arg: []byte("x"), Expect: 10, Out: OutConflict, Ver: 20},
		{Proc: 0, Kind: KindDel, Key: "k", Out: OutOK, Ver: 30},
		{Proc: 0, Kind: KindGet, Key: "k", Out: OutNotFound, Tomb: true, Ver: 30},
		{Proc: 0, Kind: KindCas, Key: "k", Arg: []byte("c"), Expect: 0, Out: OutOK, Ver: 40},
		{Proc: 0, Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("c"), Ver: 40},
	}))
}

func TestRegisterRejectsStaleRead(t *testing.T) {
	// Read of the overwritten value after the overwrite returned.
	mustFail(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Kind: KindSet, Key: "k", Arg: []byte("b"), Out: OutOK, Ver: 20},
		{Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("a"), Ver: 10},
	}))
}

func TestRegisterRejectsLostUpdate(t *testing.T) {
	// Two CAS ops against the same expectation both succeeding is the
	// canonical lost update — exactly what quorum intersection forbids.
	mustFail(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("base"), Out: OutOK, Ver: 10},
		{Kind: KindCas, Key: "k", Arg: []byte("x"), Expect: 10, Out: OutOK, Ver: 20},
		{Kind: KindCas, Key: "k", Arg: []byte("y"), Expect: 10, Out: OutOK, Ver: 30},
	}))
}

func TestRegisterRejectsFalseConflict(t *testing.T) {
	// A conflict against the actually-live expectation is a CAS check bug
	// (the node.DisableCasCheck mutation produces the successful mirror image).
	mustFail(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Kind: KindCas, Key: "k", Arg: []byte("b"), Expect: 10, Out: OutConflict, Ver: 10},
	}))
}

func TestRegisterRejectsResurrectedRead(t *testing.T) {
	mustFail(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Kind: KindDel, Key: "k", Out: OutOK, Ver: 20},
		{Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("a"), Ver: 10},
	}))
}

func TestRegisterConcurrentOrderFreedom(t *testing.T) {
	// A read overlapping an in-flight write may linearize before it:
	// reading the old value during the overlap, the new one after.
	h := History{Ops: []Op{
		{Proc: 0, Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10, Call: 1, Ret: 2},
		{Proc: 1, Kind: KindSet, Key: "k", Arg: []byte("b"), Out: OutOK, Ver: 20, Call: 3, Ret: 8},
		{Proc: 2, Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("a"), Ver: 10, Call: 4, Ret: 5},
		{Proc: 2, Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("b"), Ver: 20, Call: 9, Ret: 10},
	}}
	mustPass(t, h)
	// The same reads WITHOUT the overlap (everything sequential) leave
	// no legal order — the stale read must be rejected:
	mustFail(t, seqHistory([]Op{
		{Proc: 0, Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Proc: 1, Kind: KindSet, Key: "k", Arg: []byte("b"), Out: OutOK, Ver: 20},
		{Proc: 2, Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("a"), Ver: 10},
		{Proc: 2, Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("b"), Ver: 20},
	}))
}

func TestRegisterMaybeWriteMayApply(t *testing.T) {
	// A timed-out write whose value is later read: legal iff the checker
	// linearizes the Maybe as applied.
	mustPass(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("ghost"), Out: OutMaybe},
		{Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("ghost"), Ver: 10},
	}))
	// And legal if it never applied.
	mustPass(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("ghost"), Out: OutMaybe},
		{Kind: KindGet, Key: "k", Out: OutNotFound},
	}))
	// But a value nobody even maybe-wrote stays illegal.
	mustFail(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("ghost"), Out: OutMaybe},
		{Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("invented"), Ver: 10},
	}))
}

func TestRegisterMaybeCasPrecondition(t *testing.T) {
	// A Maybe CAS may apply only where its expectation held: reading its
	// value after an intervening delete (live version 0 ≠ expect 10)
	// requires an impossible linearization.
	mustFail(t, seqHistory([]Op{
		{Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Kind: KindDel, Key: "k", Out: OutOK, Ver: 20},
		{Kind: KindCas, Key: "k", Arg: []byte("swap"), Expect: 10, Out: OutMaybe},
		{Kind: KindGet, Key: "k", Out: OutOK, Val: []byte("swap"), Ver: 30},
	}))
	// Whereas the same Maybe CAS invoked while "a" was still live may
	// have applied before the delete: a later tombstone read is fine.
	mustPass(t, History{Ops: []Op{
		{Proc: 0, Kind: KindSet, Key: "k", Arg: []byte("a"), Out: OutOK, Ver: 10, Call: 1, Ret: 2},
		{Proc: 1, Kind: KindCas, Key: "k", Arg: []byte("swap"), Expect: 10, Out: OutMaybe, Call: 3, Ret: RetInfinity},
		{Proc: 0, Kind: KindDel, Key: "k", Out: OutOK, Ver: 30, Call: 4, Ret: 5},
		{Proc: 0, Kind: KindGet, Key: "k", Out: OutNotFound, Tomb: true, Ver: 30, Call: 6, Ret: 7},
	}})
}

func TestRegisterPerKeyIndependence(t *testing.T) {
	// A violation on one key names that key, and a healthy key alongside
	// stays healthy.
	h := seqHistory([]Op{
		{Kind: KindSet, Key: "good", Arg: []byte("a"), Out: OutOK, Ver: 10},
		{Kind: KindGet, Key: "good", Out: OutOK, Val: []byte("a"), Ver: 10},
		{Kind: KindSet, Key: "bad", Arg: []byte("x"), Out: OutOK, Ver: 10},
		{Kind: KindGet, Key: "bad", Out: OutOK, Val: []byte("y"), Ver: 10},
	})
	res := CheckLinearizable(h, RegisterModel{}, 0)
	if res.Ok || len(res.Failures) != 1 {
		t.Fatalf("result = %v, want exactly the bad key flagged", res)
	}
}

func TestCheckerBudgetExhaustion(t *testing.T) {
	// A pile of mutually overlapping ops with a budget of 1: the checker
	// must give up loudly, not hang or fail.
	ops := make([]Op, 12)
	for i := range ops {
		ops[i] = Op{Proc: i, Kind: KindSet, Key: "k", Arg: []byte{byte(i)}, Out: OutOK,
			Ver: uint64(10 + i), Call: 1, Ret: 100}
	}
	res := CheckLinearizable(History{Ops: ops}, RegisterModel{}, 1)
	if !res.Exhausted {
		t.Fatalf("result = %v, want Exhausted", res)
	}
}
