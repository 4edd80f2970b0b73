// Package wal is a Bitcask-style append-only storage engine: the
// durability layer under a back-end node's in-memory store. Every
// mutation is appended to the active segment file before it touches the
// map, so a crashed node replays its way back to the exact pre-crash
// state instead of restarting empty and being rebuilt over the network
// by hinted handoff and anti-entropy.
//
// Layout of a data directory:
//
//	MANIFEST          — ordered list of live segment files (replay order)
//	seg-NNNNNNNN.wal  — append-only record files (record format in record.go)
//	seg-NNNNNNNN.hint — per-segment keydir hints written when a segment seals
//
// The MANIFEST is the commit point for every multi-file transition
// (rotation, merge): it is rewritten atomically (temp + fsync + rename +
// dir fsync), and any segment or hint file on disk that the manifest
// does not reference is a leftover from an interrupted transition,
// deleted at the next Open. Replay therefore never sees a half-merged
// hybrid: either the old segments are still the truth or the merged
// output is.
//
// Crash semantics: a torn append (kill -9, power cut mid-write) leaves a
// partial record at the tail of the last segment; replay detects it by
// CRC, truncates it away, and loses exactly that record. A CRC mismatch
// anywhere data was supposed to be stable — a sealed segment, or
// mid-file with valid records after it — is corruption, not a torn
// write, and surfaces as ErrBadSegment so the caller can fall back to
// start-empty-and-repair.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options zero values.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncInterval = 500 * time.Millisecond
	DefaultMaxKeyLen    = 1 << 10
	DefaultMaxValueLen  = 1 << 22
	DefaultMergeRatio   = 0.5
)

// ErrBadSegment reports a segment the engine cannot trust: a CRC
// mismatch on stable data, an impossible record header mid-file, or a
// manifest referencing a segment that is gone. Callers should treat the
// whole directory as suspect (quarantine it and start empty — repair
// refills the node), as node.Backend.OpenData does.
var ErrBadSegment = errors.New("wal: bad segment")

// ErrClosed reports an append or merge against a closed log.
var ErrClosed = errors.New("wal: closed")

// Options tunes a Log. The zero value is production-ready.
type Options struct {
	// SegmentBytes seals the active segment once it reaches this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// SyncInterval is how often the active segment is fsynced in the
	// background. 0 picks DefaultSyncInterval; negative disables the
	// loop (callers drive Sync explicitly — tests, benchmarks).
	// Independent of fsync, every append is a synchronous write(2), so
	// a process kill loses at most the record torn by the kill itself;
	// the interval only bounds loss on power failure.
	SyncInterval time.Duration
	// SyncEveryAppend fsyncs after every record — power-loss-proof and
	// slow; for callers whose durability contract demands it.
	SyncEveryAppend bool
	// MaxKeyLen / MaxValueLen bound record fields (0 = the defaults,
	// which match internal/proto's wire limits). Replay rejects records
	// outside them as corrupt: no client could have written such a
	// record through the wire, so the bytes cannot be a real write.
	MaxKeyLen   int
	MaxValueLen int
	// MergeRatio triggers a background merge after rotation when the
	// sealed segments' dead-byte fraction exceeds it (0 =
	// DefaultMergeRatio, negative = never auto-merge).
	MergeRatio float64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes == 0 {
		out.SegmentBytes = DefaultSegmentBytes
	}
	if out.SyncInterval == 0 {
		out.SyncInterval = DefaultSyncInterval
	}
	if out.MaxKeyLen == 0 {
		out.MaxKeyLen = DefaultMaxKeyLen
	}
	if out.MaxValueLen == 0 {
		out.MaxValueLen = DefaultMaxValueLen
	}
	if out.MergeRatio == 0 {
		out.MergeRatio = DefaultMergeRatio
	}
	return out
}

// Record is one replayed entry, delivered to Open's apply callback.
// Key and Value alias a transient buffer: copy anything that must
// outlive the callback.
type Record struct {
	Key   string
	Value []byte
	Epoch uint32
	Ver   uint64
	Tomb  bool
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Appends         uint64 // records appended
	AppendErrors    uint64 // appends that failed (disk errors)
	Replayed        uint64 // records delivered to apply at Open
	TornTruncations uint64 // torn tail records truncated at Open
	HintLoads       uint64 // segments whose keydir came from a hint file
	HintFallbacks   uint64 // hint files rejected, segment rescanned
	Rotations       uint64 // segments sealed
	Merges          uint64 // merge passes completed
	MergeDropped    uint64 // records dropped by merges (superseded + GC'd tombstones)
	Segments        int    // current live segment count (including active)
	LiveKeys        int    // keydir entries (live records + retained tombstones)
}

// keyEnt is the keydir: where a key's newest record lives. It survives
// for tombstones too — the record must keep superseding older writes
// through a merge until the tombstone horizon passes.
type keyEnt struct {
	seq  uint64
	off  int64
	size uint32
	ver  uint64
	tomb bool
}

// segment is one live data file. dead counts bytes whose records have
// been superseded — the merge trigger's input.
type segment struct {
	seq  uint64
	size int64
	dead int64
}

// Log is the engine handle. Safe for concurrent use; appends serialize
// on one mutex (there is one tail to append to regardless).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     []*segment // replay/commit order; last is active
	active   *os.File
	activeSz int64
	nextSeq  uint64
	keydir   map[string]keyEnt
	buf      []byte // append scratch, reused under mu: the 0-alloc path
	merging  bool
	closed   bool

	appends, appendErrs, replayed, torn atomic.Uint64
	hintLoads, hintFalls, rotations     atomic.Uint64
	merges, mergeDropped                atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%08d.wal", seq) }
func hintName(seq uint64) string { return fmt.Sprintf("seg-%08d.hint", seq) }

// seqOf parses the sequence number out of a segment file name.
func seqOf(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%d.wal", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable — without it a crash right after rename can lose the
// directory entry even though the file's bytes are on disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens (or creates) the log in dir and replays it: apply is called
// exactly once per live key with that key's newest record. Hard-deleted
// keys (unversioned tombstone newest) are not delivered at all, and
// versioned tombstones are delivered with Tomb set so the caller can
// restore its delete markers. Returns ErrBadSegment (possibly wrapped)
// when the directory cannot be trusted.
func Open(dir string, opts Options, apply func(Record) error) (*Log, error) {
	o := opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{
		dir:    dir,
		opts:   o,
		keydir: make(map[string]keyEnt),
		stop:   make(chan struct{}),
	}
	names, err := l.loadManifest()
	if err != nil {
		return nil, err
	}
	if err := l.sweepUnreferenced(names); err != nil {
		return nil, err
	}
	if err := l.replaySegments(names, apply); err != nil {
		return nil, err
	}
	if err := l.openActive(names); err != nil {
		return nil, err
	}
	if o.SyncInterval > 0 {
		l.wg.Add(1)
		go l.syncLoop(o.SyncInterval)
	}
	return l, nil
}

// loadManifest returns the ordered live segment list. A missing manifest
// (first boot, or a directory populated before manifests existed) falls
// back to name order and writes the manifest it inferred.
func (l *Log) loadManifest() ([]string, error) {
	names, ok, err := readManifest(l.dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		matches, err := filepath.Glob(filepath.Join(l.dir, "seg-*.wal"))
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			names = append(names, filepath.Base(m))
		}
		sort.Strings(names)
		if len(names) > 0 {
			if err := writeManifest(l.dir, names); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range names {
		seq, ok := seqOf(n)
		if !ok {
			return nil, fmt.Errorf("%w: manifest entry %q", ErrBadSegment, n)
		}
		if seq >= l.nextSeq {
			l.nextSeq = seq + 1
		}
	}
	return names, nil
}

// sweepUnreferenced deletes files an interrupted rotation or merge left
// behind: segments/hints the manifest does not name, and temp files.
func (l *Log) sweepUnreferenced(names []string) error {
	live := make(map[string]bool, 2*len(names))
	for _, n := range names {
		live[n] = true
		if seq, ok := seqOf(n); ok {
			live[hintName(seq)] = true
		}
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	removedAny := false
	for _, e := range entries {
		n := e.Name()
		stray := strings.HasSuffix(n, ".tmp") ||
			((strings.HasPrefix(n, "seg-") && (strings.HasSuffix(n, ".wal") || strings.HasSuffix(n, ".hint"))) && !live[n])
		if stray {
			if err := os.Remove(filepath.Join(l.dir, n)); err != nil {
				return err
			}
			removedAny = true
		}
	}
	if removedAny {
		return syncDir(l.dir)
	}
	return nil
}

// openActive opens the newest segment for appending, creating the first
// segment (and manifest) in an empty directory.
func (l *Log) openActive(names []string) error {
	if len(names) == 0 {
		return l.createActive(nil)
	}
	last := names[len(names)-1]
	f, err := os.OpenFile(filepath.Join(l.dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeSz = st.Size()
	return nil
}

// createActive makes a fresh active segment and commits the new segment
// list (prev + the new segment) to the manifest. Caller holds mu or is
// in Open (no concurrency yet).
func (l *Log) createActive(prev []string) error {
	seq := l.nextSeq
	l.nextSeq++
	name := segName(seq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	if err := writeManifest(l.dir, append(append([]string(nil), prev...), name)); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, &segment{seq: seq})
	l.active = f
	l.activeSz = 0
	return nil
}

// Append logs one mutation. The write is a single write(2) of one
// CRC-framed record from a reused buffer: zero heap allocations on the
// steady path, and a crash can only tear the record being written.
func (l *Log) Append(key string, value []byte, epoch uint32, ver uint64, tomb bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(key) == 0 || len(key) > l.opts.MaxKeyLen {
		return fmt.Errorf("wal: key length %d outside [1, %d]", len(key), l.opts.MaxKeyLen)
	}
	if len(value) > l.opts.MaxValueLen {
		return fmt.Errorf("wal: value length %d exceeds %d", len(value), l.opts.MaxValueLen)
	}
	if tomb {
		value = nil
	}
	l.buf = appendRecord(l.buf[:0], key, value, epoch, ver, tomb)
	n, err := l.active.Write(l.buf)
	if err != nil {
		// A partial write leaves a torn record at the tail; replay
		// truncates it. Roll the size forward by what landed so later
		// appends (if the disk recovers) go after it and are themselves
		// replayable only up to the tear. Losing them is unavoidable —
		// the log is damaged at this point and Stats says so.
		l.activeSz += int64(n)
		l.appendErrs.Add(1)
		return fmt.Errorf("wal: append: %w", err)
	}
	off := l.activeSz
	l.activeSz += int64(n)
	l.appends.Add(1)
	act := l.segs[len(l.segs)-1]
	act.size = l.activeSz
	l.keydirPut(key, keyEnt{seq: act.seq, off: off, size: uint32(n), ver: ver, tomb: tomb})
	if l.opts.SyncEveryAppend {
		if err := l.active.Sync(); err != nil {
			l.appendErrs.Add(1)
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if l.activeSz >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
	}
	return nil
}

// keydirPut installs the newest location for key, charging the previous
// record's bytes to its segment's dead count.
func (l *Log) keydirPut(key string, ent keyEnt) {
	if old, ok := l.keydir[key]; ok {
		if seg := l.segBySeq(old.seq); seg != nil {
			seg.dead += int64(old.size)
		}
	}
	l.keydir[key] = ent
}

func (l *Log) segBySeq(seq uint64) *segment {
	for _, s := range l.segs {
		if s.seq == seq {
			return s
		}
	}
	return nil
}

// rotateLocked seals the active segment: fsync, hint file, fresh active,
// manifest commit — then decides whether the sealed set has rotted
// enough to merge. Caller holds mu.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	sealed := l.segs[len(l.segs)-1]
	if err := l.writeHintLocked(sealed.seq); err != nil {
		// A missing hint only costs a slower replay (full segment scan);
		// rotation must not fail a client write over it.
		os.Remove(filepath.Join(l.dir, hintName(sealed.seq)))
	}
	prev := make([]string, 0, len(l.segs))
	for _, s := range l.segs {
		prev = append(prev, segName(s.seq))
	}
	if err := l.createActive(prev); err != nil {
		return err
	}
	l.rotations.Add(1)
	if l.shouldMergeLocked() {
		l.merging = true
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.merge(0, true)
		}()
	}
	return nil
}

// shouldMergeLocked is the auto-merge trigger: at least two sealed
// segments whose combined dead fraction exceeds MergeRatio.
func (l *Log) shouldMergeLocked() bool {
	if l.opts.MergeRatio < 0 || l.merging || len(l.segs) < 3 {
		return false
	}
	var size, dead int64
	for _, s := range l.segs[:len(l.segs)-1] {
		size += s.size
		dead += s.dead
	}
	return size > 0 && float64(dead)/float64(size) >= l.opts.MergeRatio
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.active == nil {
		return nil
	}
	return l.active.Sync()
}

func (l *Log) syncLoop(every time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// Close fsyncs and closes the log. Safe to call more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.stop)
	var err error
	if l.active != nil {
		if serr := l.active.Sync(); serr != nil {
			err = serr
		}
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// Stats returns a snapshot of the engine counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs, keys := len(l.segs), len(l.keydir)
	l.mu.Unlock()
	return Stats{
		Appends:         l.appends.Load(),
		AppendErrors:    l.appendErrs.Load(),
		Replayed:        l.replayed.Load(),
		TornTruncations: l.torn.Load(),
		HintLoads:       l.hintLoads.Load(),
		HintFallbacks:   l.hintFalls.Load(),
		Rotations:       l.rotations.Load(),
		Merges:          l.merges.Load(),
		MergeDropped:    l.mergeDropped.Load(),
		Segments:        segs,
		LiveKeys:        keys,
	}
}

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }
