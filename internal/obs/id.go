package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
)

// TraceID is the 16-byte W3C trace-context identifier. Requests that cross
// the HTTP boundary carry it in a `traceparent` header so a fleet-side trace
// and the loadgen client agree on the ID; in-process it is minted locally.
type TraceID [16]byte

// IsZero reports the invalid all-zero ID (the W3C spec reserves it).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// idState seeds ID generation once from crypto/rand, then derives IDs with
// an atomic counter — unique without a syscall or lock per request. The
// Once orders the seed writes before every read, so concurrent first
// requests cannot race on hi.
var idState struct {
	once sync.Once
	hi   uint64
	lo   atomic.Uint64
}

func initIDState() {
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// Fall back to a fixed nonzero seed; uniqueness still holds via the
		// counter within this process.
		seed = [16]byte{0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15, 1, 2, 3, 4, 5, 6, 7, 8}
	}
	idState.hi = binary.BigEndian.Uint64(seed[:8])
	idState.lo.Store(binary.BigEndian.Uint64(seed[8:]))
}

// NewTraceID mints a unique non-zero trace ID.
func NewTraceID() TraceID {
	idState.once.Do(initIDState)
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], idState.hi)
	binary.BigEndian.PutUint64(id[8:], idState.lo.Add(1))
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// ErrBadTraceparent reports a malformed traceparent header. Per the W3C
// spec, receivers ignore malformed headers rather than failing the request.
var ErrBadTraceparent = errors.New("obs: malformed traceparent")

// Traceparent renders the W3C header value for this trace:
// version 00, a fresh parent-id (we don't track per-hop span IDs — the
// wall-clock spans live in the trace body), sampled flag set.
func (id TraceID) Traceparent() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, id[:])
	buf = append(buf, '-')
	var parent [8]byte
	idState.once.Do(initIDState)
	// Step by 2 and force the low bit: consecutive values stay distinct
	// (n|1 == (n+1)|1 for even n) and never hit the forbidden all-zero id.
	binary.BigEndian.PutUint64(parent[:], idState.lo.Add(2)|1)
	buf = hex.AppendEncode(buf, parent[:])
	buf = append(buf, "-01"...)
	return string(buf)
}

// ParseTraceparent extracts the trace ID from a W3C traceparent header
// (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`). Unknown
// versions are accepted if the layout matches, per spec.
func ParseTraceparent(h string) (TraceID, error) {
	var id TraceID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return id, ErrBadTraceparent
	}
	if h[0] == 'f' && h[1] == 'f' { // version 0xff is forbidden
		return id, ErrBadTraceparent
	}
	if !isHex(h[:2]) || !isHex(h[3:35]) || !isHex(h[36:52]) || !isHex(h[53:55]) {
		return id, ErrBadTraceparent // isHex also rejects spec-forbidden uppercase
	}
	if _, err := hex.Decode(id[:], []byte(h[3:35])); err != nil {
		return TraceID{}, ErrBadTraceparent
	}
	if id.IsZero() {
		return id, ErrBadTraceparent
	}
	return id, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}
