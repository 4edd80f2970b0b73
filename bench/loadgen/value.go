package loadgen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// A value is self-verifying: key index, write sequence number, filler
// that is a function of both, and a CRC over all of it. A GET reply can
// therefore be checked without remembering what was written — only the
// last acknowledged sequence number per key is kept (KeyState).
//
//	[0:4)   key index   (big endian)
//	[4:8)   write seq   (big endian, 1 = preload)
//	[8:n-4) filler      (xorshift stream seeded by key and seq)
//	[n-4:n) CRC-32 (IEEE) of [0:n-4)
const minValueBytes = 12

// AppendValue appends the size-byte value of (key, seq) to dst.
func AppendValue(dst []byte, key, seq uint32, size int) []byte {
	if size < minValueBytes {
		panic(fmt.Sprintf("loadgen: value size %d below %d", size, minValueBytes))
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, key)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	x := uint64(key)<<32 | uint64(seq) | 1<<63
	for len(dst)-start < size-4 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = append(dst, byte(x))
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// CheckValue verifies that v is an intact value of key and returns its
// write sequence number.
func CheckValue(v []byte, key uint32, size int) (seq uint32, err error) {
	if len(v) != size {
		return 0, fmt.Errorf("value of key %d has %d bytes, want %d", key, len(v), size)
	}
	body := v[:len(v)-4]
	if got, want := binary.BigEndian.Uint32(v[len(v)-4:]), crc32.ChecksumIEEE(body); got != want {
		return 0, fmt.Errorf("value of key %d fails its checksum", key)
	}
	if got := binary.BigEndian.Uint32(v); got != key {
		return 0, fmt.Errorf("value of key %d belongs to key %d", key, got)
	}
	return binary.BigEndian.Uint32(v[4:]), nil
}
