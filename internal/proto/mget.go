package proto

import (
	"encoding/binary"
	"fmt"
)

// Batch reads: OpMGet carries up to MaxBatchKeys keys; the response
// payload packs per-key results. Batching matters operationally (a
// front-end can fetch a whole miss set from one backend in one round
// trip) and for the attack tooling (kvload drives much higher rates).
//
// Request body (after the op byte):
//
//	uint16  key count
//	count × [uint16 key length][key]
//
// Response payload (StatusOK):
//
//	uint16  result count (== key count, same order)
//	count × [byte found][uint32 value length][value]   (length 0 if !found)

// OpMGet is the batch-read operation.
const OpMGet Op = 6

// MaxBatchKeys bounds the keys per OpMGet request.
const MaxBatchKeys = 1024

// MGetResult is one key's outcome in a batch read.
type MGetResult struct {
	Found bool
	Value []byte
}

// AppendMGetRequest encodes a batch-read request without a correlation
// ID; clients go through AppendRequest, which threads it.
func AppendMGetRequest(dst []byte, keys []string) ([]byte, error) {
	return appendMGetRequestCorr(dst, keys, 0)
}

// appendMGetRequestCorr encodes a batch-read request, appending the
// correlation extension when corr is non-zero.
func appendMGetRequestCorr(dst []byte, keys []string, corr uint64) ([]byte, error) {
	if len(keys) == 0 || len(keys) > MaxBatchKeys {
		return dst, fmt.Errorf("%w: %d keys in batch (limit %d)", ErrMalformed, len(keys), MaxBatchKeys)
	}
	body := 1 + 2
	for _, k := range keys {
		if len(k) > MaxKeyLen {
			return dst, fmt.Errorf("%w: key length %d", ErrFrameTooLarge, len(k))
		}
		body += 2 + len(k)
	}
	if corr != 0 {
		body += corrExtLen(corr)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(OpMGet))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(keys)))
	for _, k := range keys {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	if corr != 0 {
		dst = appendCorrExt(dst, corr)
	}
	return dst, nil
}

// parseMGetBody decodes the post-op portion of an OpMGet request body:
// the keys, then an optional trailing correlation extension.
func parseMGetBody(body []byte) ([]string, uint64, error) {
	if len(body) < 2 {
		return nil, 0, fmt.Errorf("%w: truncated batch count", ErrMalformed)
	}
	count := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if count == 0 || count > MaxBatchKeys {
		return nil, 0, fmt.Errorf("%w: batch of %d keys", ErrMalformed, count)
	}
	keys := make([]string, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return nil, 0, fmt.Errorf("%w: truncated key %d length", ErrMalformed, i)
		}
		klen := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if klen > MaxKeyLen || len(body) < klen {
			return nil, 0, fmt.Errorf("%w: key %d length %d vs body %d", ErrMalformed, i, klen, len(body))
		}
		keys = append(keys, string(body[:klen]))
		body = body[klen:]
	}
	var corr uint64
	if len(body) > 0 && body[0] == extCorrTag {
		var err error
		corr, body, err = parseCorrExt(body[1:])
		if err != nil {
			return nil, 0, err
		}
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after batch", ErrMalformed, len(body))
	}
	return keys, corr, nil
}

// EncodeMGetPayload packs per-key results into a response payload.
func EncodeMGetPayload(results []MGetResult) ([]byte, error) {
	if len(results) == 0 || len(results) > MaxBatchKeys {
		return nil, fmt.Errorf("%w: %d batch results", ErrMalformed, len(results))
	}
	size := 2
	for _, r := range results {
		if len(r.Value) > MaxValueLen {
			return nil, fmt.Errorf("%w: value length %d", ErrFrameTooLarge, len(r.Value))
		}
		size += 1 + 4 + len(r.Value)
	}
	if size > MaxValueLen {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrFrameTooLarge, size)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint16(out, uint16(len(results)))
	for _, r := range results {
		if r.Found {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(r.Value)))
		out = append(out, r.Value...)
	}
	return out, nil
}

// DecodeMGetPayload unpacks a batch-read response payload.
func DecodeMGetPayload(payload []byte) ([]MGetResult, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("%w: truncated batch payload", ErrMalformed)
	}
	count := int(binary.BigEndian.Uint16(payload))
	payload = payload[2:]
	if count == 0 || count > MaxBatchKeys {
		return nil, fmt.Errorf("%w: batch of %d results", ErrMalformed, count)
	}
	out := make([]MGetResult, 0, count)
	for i := 0; i < count; i++ {
		if len(payload) < 5 {
			return nil, fmt.Errorf("%w: truncated result %d", ErrMalformed, i)
		}
		found := payload[0] == 1
		vlen := int(binary.BigEndian.Uint32(payload[1:]))
		payload = payload[5:]
		if vlen > MaxValueLen || len(payload) < vlen {
			return nil, fmt.Errorf("%w: result %d value length %d vs body %d", ErrMalformed, i, vlen, len(payload))
		}
		r := MGetResult{Found: found}
		if vlen > 0 {
			r.Value = append([]byte(nil), payload[:vlen]...)
		}
		out = append(out, r)
		payload = payload[vlen:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch payload", ErrMalformed, len(payload))
	}
	return out, nil
}
