// Package trace records and replays query traces: compact binary streams
// of integer keys. Traces decouple workload generation from execution —
// the same attack trace can be replayed against the analytical simulator,
// the discrete simulator, and the live kvstore cluster, making results
// directly comparable. They also stand in for the production traces the
// paper's setting assumes but that no lab has: a recorded synthetic trace
// is the reproducible equivalent.
//
// Format:
//
//	magic   "SCTR" (4 bytes)
//	version uint16 (currently 1)
//	m       uint64 key-space size
//	count   uint64 number of queries
//	keys    count × uvarint key
//
// Keys are varint-encoded: adversarial traces (small keys) compress to
// ~1-2 bytes per query.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"securecache/internal/workload"
)

var magic = [4]byte{'S', 'C', 'T', 'R'}

const version = 1

// Trace is an in-memory query trace over a key space of size M.
type Trace struct {
	// M is the key-space size; all keys are in [0, M).
	M int
	// Keys is the query sequence.
	Keys []int
}

// Record samples count queries from dist into a new trace.
func Record(dist workload.Distribution, count int, seed uint64) *Trace {
	if count < 0 {
		panic(fmt.Sprintf("trace: Record with count=%d", count))
	}
	g := workload.NewGenerator(dist, seed)
	return &Trace{M: dist.NumKeys(), Keys: g.Batch(make([]int, 0, count), count)}
}

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	if t.M <= 0 {
		return fmt.Errorf("trace: key space %d invalid", t.M)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [18]byte
	binary.BigEndian.PutUint16(hdr[0:], version)
	binary.BigEndian.PutUint64(hdr[2:], uint64(t.M))
	binary.BigEndian.PutUint64(hdr[10:], uint64(len(t.Keys)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	for i, k := range t.Keys {
		if k < 0 || k >= t.M {
			return fmt.Errorf("trace: key %d at index %d outside [0, %d)", k, i, t.M)
		}
		n := binary.PutUvarint(buf[:], uint64(k))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Errors returned by Read.
var (
	ErrBadMagic   = errors.New("trace: bad magic (not a trace file)")
	ErrBadVersion = errors.New("trace: unsupported version")
)

// maxTraceKeys bounds allocation when reading untrusted headers.
const maxTraceKeys = 1 << 30

// Read deserializes a trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m4 [4]byte
	if _, err := io.ReadFull(br, m4[:]); err != nil {
		return nil, err
	}
	if m4 != magic {
		return nil, ErrBadMagic
	}
	var hdr [18]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.BigEndian.Uint16(hdr[0:]); v != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	m := binary.BigEndian.Uint64(hdr[2:])
	count := binary.BigEndian.Uint64(hdr[10:])
	if m == 0 || m > maxTraceKeys || count > maxTraceKeys {
		return nil, fmt.Errorf("trace: implausible header m=%d count=%d", m, count)
	}
	// Size the slice from the header only up to a small cap: count is
	// untrusted, so memory must grow with the keys actually read.
	t := &Trace{M: int(m), Keys: make([]int, 0, min(count, 1<<16))}
	for i := uint64(0); i < count; i++ {
		k, err := binary.ReadUvarint(br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("trace: key %d: %w", i, err)
		}
		if k >= m {
			return nil, fmt.Errorf("trace: key %d out of range at index %d", k, i)
		}
		t.Keys = append(t.Keys, int(k))
	}
	return t, nil
}

// Frequencies returns the empirical key-frequency vector of the trace
// (length M), for comparing a trace against its source distribution.
func (t *Trace) Frequencies() []float64 {
	freq := make([]float64, t.M)
	if len(t.Keys) == 0 {
		return freq
	}
	inc := 1 / float64(len(t.Keys))
	for _, k := range t.Keys {
		freq[k] += inc
	}
	return freq
}

// Distribution converts the trace's empirical frequencies into a PMF, so
// recorded traffic can drive the rate-based simulator.
func (t *Trace) Distribution() (*workload.PMF, error) {
	if len(t.Keys) == 0 {
		return nil, errors.New("trace: empty trace has no distribution")
	}
	return workload.NewPMF(t.Frequencies()), nil
}
