package proto

import (
	"bytes"
	"errors"
	"testing"
)

// TestCorrRequestRoundTrip: the correlation ID survives encode/decode on
// every request shape that can carry one, including combinations with
// the epoch and version extensions and the MGET body path.
func TestCorrRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: "k", Corr: 1},
		{Op: OpGetV, Key: "k", Corr: 2},
		{Op: OpPing, Corr: 3},
		{Op: OpStats, Corr: 0x7fffffffffffffff},
		{Op: OpSet, Key: "k", Value: []byte("v"), Corr: 128},
		{Op: OpSet, Key: "k", Value: []byte("v"), Epoch: 9, Ver: 77, Corr: 1 << 56},
		{Op: OpDel, Key: "k", Ver: 12, Corr: 300},
		{Op: OpCas, Key: "k", Value: []byte("v"), CasExpect: 4, Ver: 5, Corr: 6},
		{Op: OpScan, ScanCursor: 10, ScanLimit: 16, ScanTombs: true, Corr: 11},
		{Op: OpMGet, Keys: []string{"a", "bb", "ccc"}, Corr: 1 << 33},
		{Op: OpMembers, Corr: 99},
		{Op: OpInvalidate, Key: "k", Corr: 100},
	}
	for _, want := range cases {
		buf, err := AppendRequest(nil, &want)
		if err != nil {
			t.Fatalf("%s corr %d: encode: %v", want.Op, want.Corr, err)
		}
		got, err := ReadRequest(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s corr %d: decode: %v", want.Op, want.Corr, err)
		}
		if got.Corr != want.Corr {
			t.Errorf("%s: corr %d round-tripped to %d", want.Op, want.Corr, got.Corr)
		}
		if got.Op != want.Op || got.Key != want.Key || got.Ver != want.Ver ||
			got.Epoch != want.Epoch || got.CasExpect != want.CasExpect ||
			len(got.Keys) != len(want.Keys) {
			t.Errorf("%s: fields changed: %+v vs %+v", want.Op, got, want)
		}
	}
}

// TestCorrResponseRoundTrip: same for responses, alone and stacked with
// the load-hint extension.
func TestCorrResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Status: StatusOK, Corr: 1},
		{Status: StatusOK, Payload: []byte("value"), Corr: 1 << 50},
		{Status: StatusNotFound, Corr: 2},
		{Status: StatusBusy, Corr: 3},
		{Status: StatusConflict, Payload: EncodeCasConflictPayload(nil, 9, true), Corr: 4},
		{Status: StatusOK, Payload: []byte("v"), Load: 17, LoadHinted: true, Corr: 5},
	}
	for _, want := range cases {
		buf, err := AppendResponse(nil, &want)
		if err != nil {
			t.Fatalf("%s corr %d: encode: %v", want.Status, want.Corr, err)
		}
		got, err := ReadResponse(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s corr %d: decode: %v", want.Status, want.Corr, err)
		}
		if got.Corr != want.Corr || got.Status != want.Status ||
			!bytes.Equal(got.Payload, want.Payload) ||
			got.Load != want.Load || got.LoadHinted != want.LoadHinted {
			t.Errorf("%s: round trip changed: %+v vs %+v", want.Status, got, want)
		}
	}
}

// TestCorrZeroUnchangedEncoding: corr 0 encodes byte-identically to the
// pre-extension format — no tag at all — which is what lets a server
// recognize (and refuse) a frame from a peer that predates the
// extension.
func TestCorrZeroUnchangedEncoding(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: "k"},
		{Op: OpSet, Key: "k", Value: []byte("v"), Epoch: 3, Ver: 7},
		{Op: OpMGet, Keys: []string{"a", "b"}},
	}
	for _, r := range reqs {
		buf, err := AppendRequest(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(buf, extCorrTag) >= 0 && r.Op != OpSet {
			// (OpSet's value bytes could legitimately contain 0xE4; only
			// structural frames are checked byte-wise.)
			t.Errorf("%s with corr 0 emitted the correlation tag: %x", r.Op, buf)
		}
	}
	resp := Response{Status: StatusOK}
	buf, err := AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 5, byte(StatusOK), 0, 0, 0, 0}
	if !bytes.Equal(buf, want) {
		t.Errorf("corr-0 response frame changed: %x vs %x", buf, want)
	}
}

// TestCorrMalformed: explicit zero IDs, duplicate extensions, and
// truncated uvarints are all rejected — the extension is a versioning
// escape hatch, not a lenient channel.
func TestCorrMalformed(t *testing.T) {
	frame := func(body ...byte) []byte {
		out := []byte{0, 0, 0, byte(len(body))}
		return append(out, body...)
	}
	cases := map[string][]byte{
		"explicit zero corr":  frame(byte(OpPing), extCorrTag, 0x00),
		"truncated uvarint":   frame(byte(OpPing), extCorrTag, 0x80),
		"duplicate extension": frame(byte(OpPing), extCorrTag, 0x01, extCorrTag, 0x02),
		"mget zero corr":      frame(byte(OpMGet), 0, 1, 0, 1, 'a', extCorrTag, 0x00),
	}
	for name, raw := range cases {
		if _, err := ReadRequest(bytes.NewReader(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	respCases := map[string][]byte{
		"resp zero corr":  frame(byte(StatusOK), 0, 0, 0, 0, extCorrTag, 0x00),
		"resp truncated":  frame(byte(StatusOK), 0, 0, 0, 0, extCorrTag, 0xff),
		"resp duplicate":  frame(byte(StatusOK), 0, 0, 0, 0, extCorrTag, 0x01, extCorrTag, 0x01),
		"legacy peer tag": frame(byte(StatusOK), 0, 0, 0, 0, 0xE9, 0x01),
	}
	for name, raw := range respCases {
		if _, err := ReadResponse(bytes.NewReader(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// TestFrameOwnershipAPI: the exported Frame carries a valid encoded
// frame and survives the pool round trip.
func TestFrameOwnershipAPI(t *testing.T) {
	req := &Request{Op: OpGet, Key: "k", Corr: 42}
	f, err := NewRequestFrame(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bytes.NewReader(f.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Corr != 42 || got.Key != "k" {
		t.Fatalf("frame decoded to %+v", got)
	}
	f.Release()

	rf, err := NewResponseFrame(&Response{Status: StatusOK, Payload: []byte("p"), Corr: 7})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(bytes.NewReader(rf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Corr != 7 || string(resp.Payload) != "p" {
		t.Fatalf("frame decoded to %+v", resp)
	}
	rf.Release()

	if _, err := NewRequestFrame(&Request{Op: 0}); err == nil {
		t.Fatal("encode error did not surface through NewRequestFrame")
	}
}
