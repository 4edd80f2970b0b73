package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"securecache/internal/proto"
)

// Snapshots are an import format, not a durability mechanism: a node's
// state is made durable only by its write-ahead log (wal.go), and a
// snapshot file is read once, into an empty node, to seed that log.
//
// Snapshot format:
//
//	magic   "SCKV" (4 bytes)
//	version uint16 (currently 2)
//	count   uint64
//	count × entries
//
// v1 entry: [uint32 key length][key][uint32 value length][value]
// v2 entry: [uint32 key length][key][uint8 flags][uint64 ver][uint32 epoch]
//           then, for live entries (flags bit 0 clear):
//           [uint32 value length][value]
//
// v2 carries each entry's logical version, epoch tag, and tombstone
// flag so an import cannot silently shed delete markers (which would let
// anti-entropy resurrect deleted keys) or version history (which would
// let hint replay clobber newer values). v1 entries import as
// unversioned epoch-0 data, exactly what that format encoded.

var snapMagic = [4]byte{'S', 'C', 'K', 'V'}

const (
	snapV1 = 1
	snapV2 = 2

	snapEntryTomb = 1 << 0
)

// ErrBadSnapshot reports a corrupt or foreign snapshot stream.
var ErrBadSnapshot = errors.New("kvstore: bad snapshot")

// snapEntry is one decoded snapshot entry, held until the whole stream
// has validated. v1 entries decode with epoch and version 0.
type snapEntry struct {
	key   string
	value []byte
	epoch uint32
	ver   uint64
	tomb  bool
}

// ReadSnapshot imports a snapshot stream into the store, all or nothing:
// the whole stream is decoded and validated before the first entry is
// applied, so a corrupt or truncated stream returns ErrBadSnapshot and
// leaves the store — and the log attached to it — untouched. Entries
// apply as versioned writes over whatever the store holds; import into
// an empty store for an exact restore. The reader treats the stream as
// untrusted: length fields are bounded by the wire-format limits
// (proto.MaxKeyLen / proto.MaxValueLen) and allocations grow with bytes
// actually read, so a hostile header claiming 2^32-byte chunks or 2^64
// entries costs the attacker bandwidth, not the node memory.
func (s *Store) ReadSnapshot(r io.Reader) error {
	entries, err := decodeSnapshot(r)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.tomb {
			s.DeleteVersioned(e.key, e.epoch, e.ver)
		} else {
			s.SetVersioned(e.key, e.value, e.epoch, e.ver)
		}
	}
	return nil
}

// decodeSnapshot decodes and validates a whole snapshot stream.
func decodeSnapshot(r io.Reader) ([]snapEntry, error) {
	br := bufio.NewReader(r)
	var m4 [4]byte
	if _, err := io.ReadFull(br, m4[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if m4 != snapMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, m4)
	}
	var hdr [10]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	ver := binary.BigEndian.Uint16(hdr[0:])
	if ver != snapV1 && ver != snapV2 {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, ver)
	}
	count := binary.BigEndian.Uint64(hdr[2:])
	var lenBuf [4]byte
	var meta [13]byte
	var entries []snapEntry
	for i := uint64(0); i < count; i++ {
		key, err := readChunk(br, lenBuf[:], proto.MaxKeyLen)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d key: %v", ErrBadSnapshot, i, err)
		}
		if len(key) == 0 {
			// No client can write an empty key through the wire, so the
			// stream cannot hold a keyspace any node ever served: corrupt.
			// (Accepting it would plant a key unreachable by the protocol.)
			return nil, fmt.Errorf("%w: entry %d: empty key", ErrBadSnapshot, i)
		}
		e := snapEntry{key: string(key)}
		if ver == snapV2 {
			if _, err := io.ReadFull(br, meta[:]); err != nil {
				return nil, fmt.Errorf("%w: entry %d meta: %v", ErrBadSnapshot, i, err)
			}
			flags := meta[0]
			if flags&^byte(snapEntryTomb) != 0 {
				return nil, fmt.Errorf("%w: entry %d flags %#x", ErrBadSnapshot, i, flags)
			}
			e.ver = binary.BigEndian.Uint64(meta[1:9])
			e.epoch = binary.BigEndian.Uint32(meta[9:13])
			e.tomb = flags&snapEntryTomb != 0
			if e.tomb && e.ver == 0 {
				return nil, fmt.Errorf("%w: entry %d tombstone with version 0", ErrBadSnapshot, i)
			}
		}
		if !e.tomb {
			if e.value, err = readChunk(br, lenBuf[:], proto.MaxValueLen); err != nil {
				return nil, fmt.Errorf("%w: entry %d value: %v", ErrBadSnapshot, i, err)
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// readChunk reads a length-prefixed chunk, rejecting lengths over max.
// The buffer grows in bounded steps as bytes arrive rather than being
// allocated up front from the (attacker-controlled) length field.
func readChunk(r io.Reader, lenBuf []byte, max int) ([]byte, error) {
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf))
	if n > max {
		return nil, fmt.Errorf("chunk of %d bytes exceeds limit %d", n, max)
	}
	if n == 0 {
		return nil, nil
	}
	const step = 64 << 10
	buf := make([]byte, 0, min(n, step))
	for len(buf) < n {
		chunk := min(n-len(buf), step)
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// LoadSnapshot imports the snapshot file at path into the backend — the
// one-shot way to seed a node from a snapshot, run before Serve. The
// import is all or nothing (ReadSnapshot). With a write-ahead log
// attached every imported entry is logged, and LoadSnapshot returns only
// after the log is fsynced: from then on the log alone holds the node's
// state, and the snapshot file is no longer needed.
func (b *Backend) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := b.store.ReadSnapshot(f); err != nil {
		return err
	}
	if b.wal != nil {
		if err := b.wal.Sync(); err != nil {
			return fmt.Errorf("kvstore: backend %d: sync imported snapshot: %w", b.id, err)
		}
	}
	return nil
}
