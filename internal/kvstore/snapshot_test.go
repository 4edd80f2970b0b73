package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"securecache/internal/proto"
)

// encodeSnapshot writes s as a v2 snapshot stream. Nodes no longer
// write snapshots (the WAL is their only durability mechanism); this
// encoder exists so the import tests and the fuzz seeds have streams to
// read.
func encodeSnapshot(s *Store) []byte {
	var entries []proto.ScanEntry
	for cursor := uint64(0); ; {
		page, next := s.Scan(cursor, 512, 0, 0, ScanOptions{Tombs: true})
		entries = append(entries, page...)
		if next == 0 {
			break
		}
		cursor = next
	}
	var b []byte
	b = append(b, snapMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, snapV2)
	b = binary.BigEndian.AppendUint64(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.BigEndian.AppendUint32(b, uint32(len(e.Key)))
		b = append(b, e.Key...)
		var flags byte
		if e.Tomb {
			flags = snapEntryTomb
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, e.Ver)
		b = binary.BigEndian.AppendUint32(b, e.Epoch)
		if !e.Tomb {
			b = binary.BigEndian.AppendUint32(b, uint32(len(e.Value)))
			b = append(b, e.Value...)
		}
	}
	return b
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := NewStore()
	for i := 0; i < 500; i++ {
		src.Set(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	src.Set("empty", nil)

	dst := NewStore()
	if err := dst.ReadSnapshot(bytes.NewReader(encodeSnapshot(src))); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d keys, want %d", dst.Len(), src.Len())
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok := dst.Get(k)
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %s: %q, %v", k, v, ok)
		}
	}
	if v, ok := dst.Get("empty"); !ok || len(v) != 0 {
		t.Error("empty value lost")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	s := NewStore()
	for _, raw := range [][]byte{
		nil,
		[]byte("not a snapshot"),
		append([]byte("SCKV"), 0, 99, 0, 0, 0, 0, 0, 0, 0, 0), // bad version
	} {
		if err := s.ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("garbage accepted or wrong error: %v", err)
		}
	}
}

func TestSnapshotTruncated(t *testing.T) {
	src := NewStore()
	src.Set("k", []byte("v"))
	raw := encodeSnapshot(src)
	if err := NewStore().ReadSnapshot(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestBackendCrashRecovery: a durable backend takes writes over the
// wire and dies without closing its log (kill -9: listener and conns
// gone, no final fsync, no hint file). A fresh backend on the same data
// dir replays every key with its version.
func TestBackendCrashRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node0")
	b1 := NewBackend(0)
	if _, err := b1.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	addr := serveBackend(t, b1, "127.0.0.1:0")
	c := NewClient(addr)
	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	want := storeFingerprint(b1.Store())
	b1.srv.close() // the log is abandoned, never synced or closed

	b2 := NewBackend(0)
	if _, err := b2.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	diffFingerprints(t, want, storeFingerprint(b2.Store()))
	c2 := NewClient(serveBackend(t, b2, "127.0.0.1:0"))
	defer c2.Close()
	for i := 0; i < 50; i++ {
		v, err := c2.Get(fmt.Sprintf("k%02d", i))
		if err != nil || string(v) != "v" {
			t.Fatalf("key k%02d after recovery: %q, %v", i, v, err)
		}
	}
}

// serveBackend listens on addr (retrying out a close/rebind race on a
// fixed port) and serves b on a background goroutine.
func serveBackend(t *testing.T, b *Backend, addr string) string {
	t.Helper()
	for attempt := 0; ; attempt++ {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			go b.Serve(l)
			return l.Addr().String()
		}
		if attempt == 50 {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLoadSnapshotMissingFile(t *testing.T) {
	b := NewBackend(0)
	defer b.Close()
	if err := b.LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Error("missing snapshot file accepted")
	}
}

func TestSnapshotV2PersistsVersionsAndTombstones(t *testing.T) {
	src := NewStore()
	src.SetVersioned("live", []byte("v"), 3, 10)
	src.SetVersioned("gone", []byte("x"), 3, 4)
	src.DeleteVersioned("gone", 3, 7)
	src.Set("legacy", []byte("old")) // unversioned, epoch 0

	dst := NewStore()
	if err := dst.ReadSnapshot(bytes.NewReader(encodeSnapshot(src))); err != nil {
		t.Fatal(err)
	}
	if v, epoch, ver, tomb, ok := dst.GetVersioned("live"); !ok || tomb || ver != 10 || epoch != 3 || string(v) != "v" {
		t.Errorf("live: v=%q epoch=%d ver=%d tomb=%v ok=%v", v, epoch, ver, tomb, ok)
	}
	if _, _, ver, tomb, ok := dst.GetVersioned("gone"); !ok || !tomb || ver != 7 {
		t.Errorf("tombstone lost across snapshot: ver=%d tomb=%v ok=%v", ver, tomb, ok)
	}
	// The restored tombstone must still block stale replays.
	if dst.SetVersioned("gone", []byte("zombie"), 3, 5) {
		t.Error("restored tombstone failed to block a stale write")
	}
	if v, ok := dst.Get("legacy"); !ok || string(v) != "old" {
		t.Errorf("legacy entry: %q, %v", v, ok)
	}
}

func TestSnapshotReadsV1Format(t *testing.T) {
	// Hand-build a v1 stream: restored entries are unversioned epoch-0.
	var buf bytes.Buffer
	buf.WriteString("SCKV")
	buf.Write([]byte{0, 1})                   // version 1
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1}) // count 1
	buf.Write([]byte{0, 0, 0, 1, 'k'})        // key "k"
	buf.Write([]byte{0, 0, 0, 2, 'v', '1'})   // value "v1"
	s := NewStore()
	if err := s.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	v, epoch, ver, tomb, ok := s.GetVersioned("k")
	if !ok || tomb || ver != 0 || epoch != 0 || string(v) != "v1" {
		t.Fatalf("v1 restore: v=%q epoch=%d ver=%d tomb=%v ok=%v", v, epoch, ver, tomb, ok)
	}
}

func TestSnapshotRejectsHostileLengths(t *testing.T) {
	// A header claiming a huge key must be rejected by the bound check,
	// not answered with a giant allocation.
	var buf bytes.Buffer
	buf.WriteString("SCKV")
	buf.Write([]byte{0, 2})                   // version 2
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1}) // count 1
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // key length 2^32-1
	if err := NewStore().ReadSnapshot(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("hostile key length: %v, want ErrBadSnapshot", err)
	}

	// Same for a value length past the wire bound.
	buf.Reset()
	buf.WriteString("SCKV")
	buf.Write([]byte{0, 2})
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	buf.Write([]byte{0, 0, 0, 1, 'k'})
	buf.Write([]byte{0})                      // flags: live
	buf.Write(make([]byte, 12))               // ver + epoch
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // value length 2^32-1
	if err := NewStore().ReadSnapshot(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("hostile value length: %v, want ErrBadSnapshot", err)
	}

	// A count far past the bytes actually present must fail on read, not
	// pre-allocate count entries.
	buf.Reset()
	buf.WriteString("SCKV")
	buf.Write([]byte{0, 2})
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // count 2^64-1
	if err := NewStore().ReadSnapshot(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("hostile count: %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotImportAllOrNothing: a truncated snapshot is rejected
// without touching the store or the attached log — nothing is served
// and nothing is replayed on the next boot, which then still imports.
func TestSnapshotImportAllOrNothing(t *testing.T) {
	src := NewStore()
	for i := 0; i < 100; i++ {
		src.SetVersioned(testKeyName(i), chaosValue(i), 1, uint64(i+1))
	}
	tmp := t.TempDir()
	raw := encodeSnapshot(src)
	path := filepath.Join(tmp, "torn.snap")
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "node0")
	b := NewBackend(0)
	if _, err := b.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadSnapshot(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated import: %v, want ErrBadSnapshot", err)
	}
	if n, tombs := b.Store().Len(), b.Store().TombCount(); n != 0 || tombs != 0 {
		t.Errorf("failed import left %d keys and %d tombstones in the store", n, tombs)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := NewBackend(0)
	if _, err := b2.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.WAL().Stats(); st.Replayed != 0 || b2.Store().Len() != 0 {
		t.Fatalf("reopen after a failed import replayed %d records (%d keys), want 0",
			st.Replayed, b2.Store().Len())
	}
}

// TestSnapshotImportIntoWAL: a good import is logged in full — a crash
// right after LoadSnapshot returns reopens to exactly the snapshot's
// keys, versions, epochs and tombstones, with no snapshot needed.
func TestSnapshotImportIntoWAL(t *testing.T) {
	src := NewStore()
	for i := 0; i < 100; i++ {
		src.SetVersioned(testKeyName(i), chaosValue(i), uint32(i%3), uint64(i+1))
	}
	for i := 0; i < 100; i += 7 {
		src.DeleteVersioned(testKeyName(i), 2, uint64(500+i))
	}
	src.Set("legacy", []byte("old"))
	want := storeFingerprint(src)
	tmp := t.TempDir()
	path := filepath.Join(tmp, "import.snap")
	if err := os.WriteFile(path, encodeSnapshot(src), 0o644); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(tmp, "node0")
	b := NewBackend(0)
	if _, err := b.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	diffFingerprints(t, want, storeFingerprint(b.Store()))
	// Crash without closing the log; the snapshot file is gone too.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	b2 := NewBackend(0)
	if _, err := b2.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.WAL().Stats(); st.Replayed != uint64(len(want)) {
		t.Errorf("reopen replayed %d records, want %d", st.Replayed, len(want))
	}
	diffFingerprints(t, want, storeFingerprint(b2.Store()))
}
