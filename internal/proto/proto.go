// Package proto defines the binary wire protocol spoken between kvstore
// clients, the front-end, and back-end nodes.
//
// Every message is a length-prefixed frame:
//
//	uint32  body length (big endian, excludes the prefix itself)
//	body    request or response payload
//
// Request body:
//
//	byte    op (OpGet, OpSet, OpDel, OpStats, OpPing)
//	uint16  key length, then key bytes (absent for OpStats/OpPing)
//	uint32  value length, then value bytes (OpSet and OpCas)
//	uint64  expected version (OpCas only)
//	[ext]   optional epoch extension (see below)
//
// Single-key requests (and OpScan) may carry one trailing extension
// block tagging the request with a partition epoch:
//
//	byte    0xE1 (extension tag)
//	uint32  epoch
//	byte    flags (bit 0: epoch-guarded write)
//
// The block is emitted only when the epoch or a flag is non-zero, so
// pre-rotation peers and pre-extension frames stay byte-identical.
// Unknown tags or flags are rejected as malformed — the extension is a
// versioning escape hatch, not a skip-what-you-don't-know channel.
//
// Response body:
//
//	byte    status (StatusOK, StatusNotFound, StatusError, StatusBusy,
//	        StatusConflict)
//	uint32  payload length, then payload bytes
//	        (the value for GET, JSON metrics for STATS, the error
//	        message for StatusError)
//	[ext]   optional load-hint extension (see below)
//
// Responses may carry one trailing extension block piggybacking the
// server's instantaneous load (tier frontends report in-flight
// requests so power-of-two-choices clients can pick the less-loaded
// candidate without extra round trips):
//
//	byte    0xE3 (load-hint tag)
//	uint32  load
//
// The block is emitted only when the server opts in (LoadHinted), so
// every pre-extension frame stays byte-identical and old peers are
// unaffected unless they talk to a hinting frontend.
//
// Requests and responses may both carry a correlation-ID extension,
// which is what turns the lockstep protocol into a pipelined one:
//
//	byte    0xE4 (correlation tag)
//	uvarint correlation ID (non-zero)
//
// A client that pipelines stamps every request with a connection-unique
// non-zero ID and may have many frames in flight; the server echoes the
// ID on the matching response, which may be written out of order. ID 0
// encodes as no extension at all, so a non-pipelining client's frames
// are byte-identical to the pre-extension format and the exchange stays
// strict lockstep: one request, one response, in order. Servers treat
// the first correlated frame on a connection as the upgrade signal;
// peers that predate the extension reject the unknown tag as malformed,
// so a pipelining client talking to an old server fails loudly on the
// first frame instead of desynchronizing mid-stream.
//
// There is still no versioning negotiation. Frames are bounded
// (MaxKeyLen, MaxValueLen) so a malicious peer cannot make a server
// allocate unbounded memory.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Op identifies a request operation.
type Op byte

// Request operations.
const (
	OpGet Op = iota + 1
	OpSet
	OpDel
	OpStats
	OpPing
)

// OpGetV is the versioned read: like OpGet, but the response carries the
// entry's logical version so replica copies are comparable. StatusOK
// payload is [uint64 version][value bytes]; StatusNotFound payload is
// either empty (key unknown) or [uint64 version] (a tombstone — the key
// was deleted at that version, which is authoritative against any older
// live copy). See EncodeGetVPayload.
const OpGetV Op = 8

// OpInvalidate asks a tier frontend to drop its cached copy of a key.
// Power-of-two-choices clients route a write through one of the key's
// two candidate frontends; the other candidate may still hold the old
// value, so the client (or the writing frontend) follows up with an
// OpInvalidate to bound the staleness window to one round trip. The
// response is StatusOK whether or not the key was cached. Backends
// answer StatusError (they hold no cache).
const OpInvalidate Op = 10

// OpCas is a versioned compare-and-swap write. The body carries the key,
// the new value, and a fixed [uint64 expected version] after the value:
// the write applies only if the entry's current live version equals the
// expectation (0 expects an absent or tombstoned key). The new version
// rides the 0xE2 version extension (0 = the server assigns one). On
// success the response is StatusOK with payload [uint64 new version]; on
// a precondition miss it is StatusConflict with payload [uint64 current
// live version] (plus an optional disposition byte — see StatusConflict).
const OpCas Op = 11

// OpMembers asks a frontend for its current membership view. Key-less,
// like OpStats; the StatusOK payload is a JSON document (the kvstore
// MembershipStatus: view version, node list with states, the member
// addresses, and the provisioned cache size). Load generators use it to
// refresh their address lists when a node they are polling drains; the
// admin GET /membership serves the same view to operator tools.
// Backends answer StatusError (they do not own the view).
const OpMembers Op = 9

// String names the op for logs and errors.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpMGet:
		return "MGET"
	case OpScan:
		return "SCAN"
	case OpGetV:
		return "GETV"
	case OpMembers:
		return "MEMBERS"
	case OpInvalidate:
		return "INVALIDATE"
	case OpCas:
		return "CAS"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

func (o Op) valid() bool {
	return (o >= OpGet && o <= OpPing) || o == OpMGet || o == OpScan || o == OpGetV || o == OpMembers || o == OpInvalidate || o == OpCas
}

// hasKey reports whether the op carries a key.
func (o Op) hasKey() bool {
	return o == OpGet || o == OpSet || o == OpDel || o == OpGetV || o == OpInvalidate || o == OpCas
}

// hasValue reports whether the op carries a value.
func (o Op) hasValue() bool { return o == OpSet || o == OpCas }

// Status identifies a response outcome.
type Status byte

// Response statuses.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusError
	// StatusBusy means the server shed the request under overload
	// control: it is alive and healthy but refuses to queue more work.
	// Clients should fail over to another replica (or back off) rather
	// than treat the node as failed — a shedding node must not trip
	// circuit breakers.
	StatusBusy
	// StatusConflict means an OpCas found a live version different from
	// the expectation. The payload is [uint64 current live version],
	// optionally followed by one disposition byte: 0x01 marks a partial
	// conflict — the new value reached at least one replica but fewer
	// than the write quorum, so the CAS may still surface through
	// anti-entropy and the caller must treat its fate as ambiguous.
	StatusConflict
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusError:
		return "ERROR"
	case StatusBusy:
		return "BUSY"
	case StatusConflict:
		return "CONFLICT"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

func (s Status) valid() bool { return s >= StatusOK && s <= StatusConflict }

// Size limits. Oversized frames are rejected before allocation.
const (
	MaxKeyLen   = 1 << 10 // 1 KiB keys
	MaxValueLen = 1 << 22 // 4 MiB values
	maxFrame    = MaxValueLen + MaxKeyLen + 16
	// MaxPayloadLen bounds a response payload: a max-size value plus
	// per-entry framing (key, lengths, epoch) must fit, so a scan page
	// carrying one maximal entry is still deliverable.
	MaxPayloadLen = maxFrame - 5
)

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")
	ErrMalformed     = errors.New("proto: malformed message")
	// ErrBusy is returned for StatusBusy responses: the server shed the
	// request under overload control. Retrying the same node immediately
	// only feeds the overload; fail over or back off instead.
	ErrBusy = errors.New("proto: server busy, request shed")
	// ErrConflict is returned for StatusConflict responses: a
	// compare-and-swap found a live version different from the one the
	// caller expected. Re-read the entry and retry with the fresh
	// version; the request was answered, not lost.
	ErrConflict = errors.New("proto: compare-and-swap conflict")
)

// Epoch extension encoding: tag byte, uint32 epoch, flag byte.
const (
	extEpochTag    = 0xE1
	extEpochLen    = 6
	flagEpochGuard = 1 << 0
	// flagScanTombs (OpScan only) includes tombstones in the page so
	// anti-entropy can propagate deletes; migration scans omit them.
	flagScanTombs = 1 << 1
	// flagScanDigest (OpScan only) elides value bytes from the page,
	// substituting a 64-bit content hash — the cheap mode the anti-entropy
	// repairer diffs replica pairs with.
	flagScanDigest = 1 << 2
)

// Load-hint extension encoding (responses only): tag byte, uint32 load.
// Emitted only when Response.LoadHinted is set, so hint-less frames are
// byte-identical to the pre-extension format.
const (
	extLoadTag = 0xE3
	extLoadLen = 5
)

// Version extension encoding: tag byte, uint64 logical version. Valid on
// OpSet (the write applies only over strictly older versions) and OpDel
// (delete becomes a versioned tombstone write). Version 0 encodes as no
// extension — the unversioned last-write-wins semantics of the seed.
const (
	extVerTag = 0xE2
	extVerLen = 9
)

// Correlation extension encoding: tag byte, uvarint correlation ID.
// Valid on every request op (including OpMGet) and on responses. ID 0
// encodes as no extension — the legacy lockstep exchange — so only
// pipelined peers ever emit the tag. See the package comment for the
// pipelining contract.
const extCorrTag = 0xE4

// corrExtLen returns the encoded size of the correlation extension for
// a given ID (tag byte plus uvarint).
func corrExtLen(corr uint64) int {
	n := 1
	for {
		n++
		corr >>= 7
		if corr == 0 {
			return n
		}
	}
}

// appendCorrExt appends the correlation extension block.
func appendCorrExt(dst []byte, corr uint64) []byte {
	dst = append(dst, extCorrTag)
	return binary.AppendUvarint(dst, corr)
}

// parseCorrExt decodes the uvarint after an extCorrTag byte, returning
// the ID and the remaining body. A zero or unparseable ID is malformed:
// zero must encode as no extension, so an explicit zero is a confused
// (or hostile) peer.
func parseCorrExt(body []byte) (uint64, []byte, error) {
	corr, n := binary.Uvarint(body)
	if n <= 0 || corr == 0 {
		return 0, nil, fmt.Errorf("%w: bad correlation extension", ErrMalformed)
	}
	return corr, body[n:], nil
}

// Request is a client -> server message. Key/Value apply to the
// single-key ops; Keys applies to OpMGet; ScanCursor/ScanLimit apply to
// OpScan.
type Request struct {
	Op    Op
	Key   string
	Value []byte
	Keys  []string

	// Epoch tags the request with a partition epoch. For OpSet it is
	// the epoch the stored entry is stamped with; for OpScan it is an
	// exclusive filter (only entries below this epoch are returned,
	// 0 = all). Zero epoch with no flags is encoded as no extension at
	// all, keeping pre-rotation frames unchanged.
	Epoch uint32
	// EpochGuard marks an OpSet as a migration copy: the store applies
	// it only if the key is absent or stored under a strictly older
	// epoch, so a racing client write (stamped with the current epoch)
	// can never be clobbered by stale migrated data.
	EpochGuard bool

	// Ver is the entry's logical version (0 = unversioned). On OpSet the
	// store applies the write only over a strictly older stored version;
	// on OpDel it turns the delete into a tombstone write at this
	// version, so replicas that missed the delete can be reconciled
	// without resurrecting the key. On OpCas it is the version the new
	// value will be stored at (0 = the server assigns one).
	Ver uint64

	// CasExpect is the OpCas precondition: the entry's current live
	// version must equal it for the swap to apply. 0 expects an absent
	// or tombstoned key, so CAS-create is expressible.
	CasExpect uint64

	// ScanCursor resumes an OpScan after the entry with this key ID
	// (0 starts from the beginning).
	ScanCursor uint64
	// ScanLimit caps the entries per OpScan response, in
	// [1, MaxBatchKeys].
	ScanLimit uint16
	// ScanTombs includes tombstones in an OpScan page.
	ScanTombs bool
	// ScanDigest replaces value bytes with 64-bit content hashes in an
	// OpScan page.
	ScanDigest bool

	// Corr is the request's correlation ID (0 = lockstep, encoded as no
	// extension). A pipelining client assigns a connection-unique
	// non-zero ID per in-flight frame; the server echoes it on the
	// response so out-of-order completions can be matched.
	Corr uint64
}

// hasEpochExt reports whether the request carries the epoch extension.
func (req *Request) hasEpochExt() bool {
	return req.Epoch != 0 || req.EpochGuard || req.ScanTombs || req.ScanDigest
}

// hasVerExt reports whether the request carries the version extension.
func (req *Request) hasVerExt() bool { return req.Ver != 0 }

// Response is a server -> client message. For StatusError, Payload holds
// the UTF-8 error message.
type Response struct {
	Status  Status
	Payload []byte

	// Load is the server's instantaneous load (in-flight requests) when
	// LoadHinted is set. Tier frontends piggyback it on every response so
	// power-of-two-choices clients can balance without polling.
	Load uint32
	// LoadHinted reports whether the response carried (or should carry)
	// the load-hint extension. A zero Load with LoadHinted set is still
	// encoded — "idle" is a meaningful hint.
	LoadHinted bool

	// Corr echoes the matched request's correlation ID (0 = lockstep,
	// encoded as no extension). Pipelined clients use it to pair a
	// response with its request; anything unknown is a protocol
	// violation that tears the connection down.
	Corr uint64
}

// Err returns the response's error: ErrBusy for StatusBusy, ErrConflict
// for StatusConflict, the remote message for StatusError, nil otherwise.
func (r *Response) Err() error {
	switch r.Status {
	case StatusBusy:
		return ErrBusy
	case StatusConflict:
		return ErrConflict
	case StatusError:
		return fmt.Errorf("proto: remote error: %s", r.Payload)
	default:
		return nil
	}
}

// AppendRequest encodes req into dst (after the 4-byte frame prefix) and
// returns the grown slice. It validates limits.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if !req.Op.valid() {
		return dst, fmt.Errorf("%w: bad op %d", ErrMalformed, req.Op)
	}
	if req.Op == OpMGet {
		if req.hasEpochExt() {
			return dst, fmt.Errorf("%w: batch requests cannot carry an epoch extension", ErrMalformed)
		}
		return appendMGetRequestCorr(dst, req.Keys, req.Corr)
	}
	if len(req.Key) > MaxKeyLen {
		return dst, fmt.Errorf("%w: key length %d", ErrFrameTooLarge, len(req.Key))
	}
	if len(req.Value) > MaxValueLen {
		return dst, fmt.Errorf("%w: value length %d", ErrFrameTooLarge, len(req.Value))
	}
	if req.Op == OpScan && (req.ScanLimit == 0 || req.ScanLimit > MaxBatchKeys) {
		return dst, fmt.Errorf("%w: scan limit %d outside [1, %d]", ErrMalformed, req.ScanLimit, MaxBatchKeys)
	}
	if (req.ScanTombs || req.ScanDigest) && req.Op != OpScan {
		return dst, fmt.Errorf("%w: scan flags on %s", ErrMalformed, req.Op)
	}
	if req.hasVerExt() && req.Op != OpSet && req.Op != OpDel && req.Op != OpCas {
		return dst, fmt.Errorf("%w: version extension on %s", ErrMalformed, req.Op)
	}
	if req.CasExpect != 0 && req.Op != OpCas {
		return dst, fmt.Errorf("%w: CAS expectation on %s", ErrMalformed, req.Op)
	}
	body := 1
	if req.Op.hasKey() {
		body += 2 + len(req.Key)
	}
	if req.Op.hasValue() {
		body += 4 + len(req.Value)
	}
	if req.Op == OpCas {
		body += 8
	}
	if req.Op == OpScan {
		body += 8 + 2
	}
	if req.hasEpochExt() {
		body += extEpochLen
	}
	if req.hasVerExt() {
		body += extVerLen
	}
	if req.Corr != 0 {
		body += corrExtLen(req.Corr)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(req.Op))
	if req.Op.hasKey() {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Key)))
		dst = append(dst, req.Key...)
	}
	if req.Op.hasValue() {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Value)))
		dst = append(dst, req.Value...)
	}
	if req.Op == OpCas {
		dst = binary.BigEndian.AppendUint64(dst, req.CasExpect)
	}
	if req.Op == OpScan {
		dst = binary.BigEndian.AppendUint64(dst, req.ScanCursor)
		dst = binary.BigEndian.AppendUint16(dst, req.ScanLimit)
	}
	if req.hasEpochExt() {
		dst = append(dst, extEpochTag)
		dst = binary.BigEndian.AppendUint32(dst, req.Epoch)
		var flags byte
		if req.EpochGuard {
			flags |= flagEpochGuard
		}
		if req.ScanTombs {
			flags |= flagScanTombs
		}
		if req.ScanDigest {
			flags |= flagScanDigest
		}
		dst = append(dst, flags)
	}
	if req.hasVerExt() {
		dst = append(dst, extVerTag)
		dst = binary.BigEndian.AppendUint64(dst, req.Ver)
	}
	if req.Corr != 0 {
		dst = appendCorrExt(dst, req.Corr)
	}
	return dst, nil
}

// WriteRequest frames and writes req to w. The encode buffer is pooled;
// w must not retain the slice past the Write call.
func WriteRequest(w io.Writer, req *Request) error {
	fb := getBuf()
	buf, err := AppendRequest(fb.b, req)
	fb.b = buf
	if err == nil {
		_, err = w.Write(buf)
	}
	fb.release()
	return err
}

// reqPool and respPool recycle decoded message structs on the serving
// hot path: one struct allocation per message read is measurable at
// pipelined throughputs. Only the struct shell is pooled — key,
// value, and payload backing storage is always freshly allocated by
// the readers (stores and callers retain those slices), so releasing
// a message never invalidates data previously extracted from it.
var (
	reqPool  = sync.Pool{New: func() interface{} { return new(Request) }}
	respPool = sync.Pool{New: func() interface{} { return new(Response) }}
)

// AcquireRequest returns a zeroed Request from the pool. Callers on
// hot paths pair it with ReleaseRequest once the request has been
// encoded and answered; everyone else can keep building requests with
// composite literals.
func AcquireRequest() *Request { return reqPool.Get().(*Request) }

// ReleaseRequest recycles req's struct for a future ReadRequest or
// AcquireRequest. The caller must be done with the struct itself;
// strings and slices read out of it earlier remain valid. Optional —
// an unreleased request is ordinary garbage.
func ReleaseRequest(req *Request) {
	*req = Request{}
	reqPool.Put(req)
}

// AcquireResponse returns a zeroed Response from the pool: a serving
// handler builds its answer in one, and the server releases it once the
// answer is encoded.
func AcquireResponse() *Response { return respPool.Get().(*Response) }

// ReleaseResponse recycles resp's struct for a future ReadResponse or
// AcquireResponse; same contract as ReleaseRequest.
func ReleaseResponse(resp *Response) {
	*resp = Response{}
	respPool.Put(resp)
}

// ReadRequest reads one framed request from r.
func ReadRequest(r io.Reader) (*Request, error) {
	fb, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	// The frame is pooled: every field parsed below is copied out of it
	// (string conversions, explicit value copies) before release.
	defer fb.release()
	body := fb.b
	if len(body) < 1 {
		return nil, fmt.Errorf("%w: empty body", ErrMalformed)
	}
	req := reqPool.Get().(*Request)
	req.Op = Op(body[0])
	body = body[1:]
	if !req.Op.valid() {
		return nil, fmt.Errorf("%w: bad op %d", ErrMalformed, req.Op)
	}
	if req.Op == OpMGet {
		keys, corr, err := parseMGetBody(body)
		if err != nil {
			return nil, err
		}
		req.Keys = keys
		req.Corr = corr
		return req, nil
	}
	if req.Op.hasKey() {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: truncated key length", ErrMalformed)
		}
		klen := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if klen > MaxKeyLen || len(body) < klen {
			return nil, fmt.Errorf("%w: key length %d vs body %d", ErrMalformed, klen, len(body))
		}
		req.Key = string(body[:klen])
		body = body[klen:]
	}
	if req.Op.hasValue() {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: truncated value length", ErrMalformed)
		}
		vlen := int(binary.BigEndian.Uint32(body))
		body = body[4:]
		if vlen > MaxValueLen || len(body) < vlen {
			return nil, fmt.Errorf("%w: value length %d vs body %d", ErrMalformed, vlen, len(body))
		}
		req.Value = append([]byte(nil), body[:vlen]...)
		body = body[vlen:]
	}
	if req.Op == OpCas {
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: truncated CAS expectation", ErrMalformed)
		}
		req.CasExpect = binary.BigEndian.Uint64(body)
		body = body[8:]
	}
	if req.Op == OpScan {
		if len(body) < 10 {
			return nil, fmt.Errorf("%w: truncated scan body", ErrMalformed)
		}
		req.ScanCursor = binary.BigEndian.Uint64(body)
		req.ScanLimit = binary.BigEndian.Uint16(body[8:])
		body = body[10:]
		if req.ScanLimit == 0 || req.ScanLimit > MaxBatchKeys {
			return nil, fmt.Errorf("%w: scan limit %d outside [1, %d]", ErrMalformed, req.ScanLimit, MaxBatchKeys)
		}
	}
	sawEpoch, sawVer := false, false
	for len(body) > 0 {
		switch body[0] {
		case extEpochTag:
			if sawEpoch || len(body) < extEpochLen {
				return nil, fmt.Errorf("%w: bad epoch extension (%d bytes)", ErrMalformed, len(body))
			}
			sawEpoch = true
			req.Epoch = binary.BigEndian.Uint32(body[1:])
			flags := body[5]
			if flags&^byte(flagEpochGuard|flagScanTombs|flagScanDigest) != 0 {
				return nil, fmt.Errorf("%w: unknown epoch flags %#x", ErrMalformed, flags)
			}
			req.EpochGuard = flags&flagEpochGuard != 0
			req.ScanTombs = flags&flagScanTombs != 0
			req.ScanDigest = flags&flagScanDigest != 0
			if (req.ScanTombs || req.ScanDigest) && req.Op != OpScan {
				return nil, fmt.Errorf("%w: scan flags on %s", ErrMalformed, req.Op)
			}
			body = body[extEpochLen:]
		case extVerTag:
			if sawVer || len(body) < extVerLen {
				return nil, fmt.Errorf("%w: bad version extension (%d bytes)", ErrMalformed, len(body))
			}
			if req.Op != OpSet && req.Op != OpDel && req.Op != OpCas {
				return nil, fmt.Errorf("%w: version extension on %s", ErrMalformed, req.Op)
			}
			sawVer = true
			req.Ver = binary.BigEndian.Uint64(body[1:])
			body = body[extVerLen:]
		case extCorrTag:
			if req.Corr != 0 {
				return nil, fmt.Errorf("%w: duplicate correlation extension", ErrMalformed)
			}
			var err error
			req.Corr, body, err = parseCorrExt(body[1:])
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(body))
		}
	}
	return req, nil
}

// EncodeGetVPayload packs a versioned-read result: [uint64 version] then
// the value bytes (tombstone responses carry the version alone on a
// StatusNotFound — see OpGetV).
func EncodeGetVPayload(ver uint64, value []byte) ([]byte, error) {
	if len(value) > MaxValueLen {
		return nil, fmt.Errorf("%w: value length %d", ErrFrameTooLarge, len(value))
	}
	out := make([]byte, 0, 8+len(value))
	out = binary.BigEndian.AppendUint64(out, ver)
	return append(out, value...), nil
}

// DecodeGetVPayload unpacks an OpGetV StatusOK payload. value aliases
// payload (capacity capped at its end); ReadResponse allocates every
// payload afresh, so a caller that does not reuse payload can keep it.
func DecodeGetVPayload(payload []byte) (ver uint64, value []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: GETV payload %d bytes", ErrMalformed, len(payload))
	}
	ver = binary.BigEndian.Uint64(payload)
	if len(payload) > 8 {
		value = payload[8:len(payload):len(payload)]
	}
	return ver, value, nil
}

// casPartialFlag marks a StatusConflict whose losing write still reached
// at least one replica (see StatusConflict).
const casPartialFlag = 0x01

// EncodeCasConflictPayload packs a StatusConflict payload: the current
// live version, plus a disposition byte when the losing write partially
// applied.
func EncodeCasConflictPayload(dst []byte, cur uint64, partial bool) []byte {
	dst = binary.BigEndian.AppendUint64(dst, cur)
	if partial {
		dst = append(dst, casPartialFlag)
	}
	return dst
}

// DecodeCasConflictPayload unpacks a StatusConflict payload.
func DecodeCasConflictPayload(payload []byte) (cur uint64, partial bool, err error) {
	if len(payload) < 8 {
		return 0, false, fmt.Errorf("%w: CAS conflict payload %d bytes", ErrMalformed, len(payload))
	}
	cur = binary.BigEndian.Uint64(payload)
	rest := payload[8:]
	switch {
	case len(rest) == 0:
	case len(rest) == 1 && rest[0] == casPartialFlag:
		partial = true
	default:
		return 0, false, fmt.Errorf("%w: CAS conflict disposition %x", ErrMalformed, rest)
	}
	return cur, partial, nil
}

// AppendResponse encodes resp into dst and returns the grown slice.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if !resp.Status.valid() {
		return dst, fmt.Errorf("%w: bad status %d", ErrMalformed, resp.Status)
	}
	if len(resp.Payload) > MaxPayloadLen {
		return dst, fmt.Errorf("%w: payload length %d", ErrFrameTooLarge, len(resp.Payload))
	}
	body := 1 + 4 + len(resp.Payload)
	if resp.LoadHinted {
		body += extLoadLen
	}
	if resp.Corr != 0 {
		body += corrExtLen(resp.Corr)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(resp.Status))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Payload)))
	dst = append(dst, resp.Payload...)
	if resp.LoadHinted {
		dst = append(dst, extLoadTag)
		dst = binary.BigEndian.AppendUint32(dst, resp.Load)
	}
	if resp.Corr != 0 {
		dst = appendCorrExt(dst, resp.Corr)
	}
	return dst, nil
}

// WriteResponse frames and writes resp to w. The encode buffer is
// pooled; w must not retain the slice past the Write call.
func WriteResponse(w io.Writer, resp *Response) error {
	fb := getBuf()
	buf, err := AppendResponse(fb.b, resp)
	fb.b = buf
	if err == nil {
		_, err = w.Write(buf)
	}
	fb.release()
	return err
}

// ReadResponse reads one framed response from r.
func ReadResponse(r io.Reader) (*Response, error) {
	fb, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	// Pooled frame: the payload is copied out below before release.
	defer fb.release()
	body := fb.b
	if len(body) < 5 {
		return nil, fmt.Errorf("%w: response body %d bytes", ErrMalformed, len(body))
	}
	resp := respPool.Get().(*Response)
	resp.Status = Status(body[0])
	if !resp.Status.valid() {
		return nil, fmt.Errorf("%w: bad status %d", ErrMalformed, resp.Status)
	}
	plen := int(binary.BigEndian.Uint32(body[1:]))
	body = body[5:]
	if plen > MaxPayloadLen || len(body) < plen {
		return nil, fmt.Errorf("%w: payload length %d vs body %d", ErrMalformed, plen, len(body))
	}
	if plen > 0 {
		resp.Payload = append([]byte(nil), body[:plen]...)
	}
	body = body[plen:]
	for len(body) > 0 {
		switch body[0] {
		case extLoadTag:
			if resp.LoadHinted || len(body) < extLoadLen {
				return nil, fmt.Errorf("%w: bad load-hint extension (%d bytes)", ErrMalformed, len(body))
			}
			resp.LoadHinted = true
			resp.Load = binary.BigEndian.Uint32(body[1:])
			body = body[extLoadLen:]
		case extCorrTag:
			if resp.Corr != 0 {
				return nil, fmt.Errorf("%w: duplicate correlation extension", ErrMalformed)
			}
			var err error
			resp.Corr, body, err = parseCorrExt(body[1:])
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: %d trailing response bytes", ErrMalformed, len(body))
		}
	}
	return resp, nil
}

// readFrame reads the 4-byte prefix and then the body into a pooled
// buffer (fb.b). The caller must release it once done parsing; nothing
// that outlives the call may alias fb.b.
//
// The body is read in frameChunk pieces, growing the buffer only as
// bytes actually arrive: a hostile peer claiming a maxFrame-sized body
// costs at most one chunk of memory until it delivers real data, instead
// of a multi-megabyte up-front allocation per connection.
func readFrame(r io.Reader) (*frameBuf, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err // io.EOF passes through for clean closes
	}
	n := int(binary.BigEndian.Uint32(prefix[:]))
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	fb := getBuf()
	for len(fb.b) < n {
		chunk := n - len(fb.b)
		if chunk > frameChunk {
			chunk = frameChunk
		}
		start := len(fb.b)
		fb.grow(start + chunk)
		fb.b = fb.b[:start+chunk]
		if _, err := io.ReadFull(r, fb.b[start:]); err != nil {
			fb.release()
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return fb, nil
}
