package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Selective-retransmission NAK payload (§3.2.3, strategy 4): a base sequence
// number followed by a bitmap in which bit i set means packet base+i was NOT
// received. The encoding is
//
//	base  uint32
//	count uint32            number of bitmap bits
//	bits  ceil(count/8) bytes, MSB-first within each byte
//
// A NAK for the paper's 64-packet transfers costs 8 + 8 = 16 payload bytes,
// comfortably inside a 64-byte ack-sized packet.

// ErrNakEncoding reports a malformed selective-NAK payload.
var ErrNakEncoding = errors.New("wire: malformed selective-nak payload")

// nakHeaderLen is the fixed portion of the selective-NAK payload.
const nakHeaderLen = 8

// MaxMissingBits is the largest bitmap that fits in MaxPayload.
const MaxMissingBits = (MaxPayload - nakHeaderLen) * 8

// EncodeMissing builds the selective-NAK payload for the given missing
// sequence numbers. The slice may be in any order; it must be non-empty and
// its span (max-min+1) must not exceed MaxMissingBits.
func EncodeMissing(missing []uint32) ([]byte, error) {
	if len(missing) == 0 {
		return nil, fmt.Errorf("%w: no missing packets", ErrNakEncoding)
	}
	sorted := make([]uint32, len(missing))
	copy(sorted, missing)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	base := sorted[0]
	span := sorted[len(sorted)-1] - base + 1
	if span > MaxMissingBits {
		return nil, fmt.Errorf("%w: span %d exceeds %d bits", ErrNakEncoding, span, MaxMissingBits)
	}
	buf := make([]byte, nakHeaderLen+(int(span)+7)/8)
	binary.BigEndian.PutUint32(buf[0:4], base)
	binary.BigEndian.PutUint32(buf[4:8], span)
	for _, s := range sorted {
		bit := s - base
		buf[nakHeaderLen+bit/8] |= 0x80 >> (bit % 8)
	}
	return buf, nil
}

// DecodeMissing parses a selective-NAK payload and returns the missing
// sequence numbers in ascending order.
func DecodeMissing(payload []byte) ([]uint32, error) {
	if len(payload) < nakHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrNakEncoding, len(payload))
	}
	base := binary.BigEndian.Uint32(payload[0:4])
	count := binary.BigEndian.Uint32(payload[4:8])
	if count == 0 || count > MaxMissingBits {
		return nil, fmt.Errorf("%w: bit count %d", ErrNakEncoding, count)
	}
	need := nakHeaderLen + (int(count)+7)/8
	if len(payload) < need {
		return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrNakEncoding, need, len(payload))
	}
	var missing []uint32
	for i := uint32(0); i < count; i++ {
		if payload[nakHeaderLen+i/8]&(0x80>>(i%8)) != 0 {
			missing = append(missing, base+i)
		}
	}
	if len(missing) == 0 {
		return nil, fmt.Errorf("%w: empty bitmap", ErrNakEncoding)
	}
	return missing, nil
}

// Transfer-request payload (TypeReq): the parameters both sides of a
// transfer must agree on. It plays the role of the V kernel's IPC message
// that precedes a MoveTo/MoveFrom — the exchange through which "the
// recipient has sufficient buffers allocated to receive the data prior to
// the transfer" (§2).
//
//	bytes     uint64  transfer length in bytes
//	chunk     uint32  data-packet payload size
//	strategy  uint8   retransmission strategy identifier (core.Strategy)
//	protocol  uint8   protocol class identifier (core.Protocol)
//	flags     uint8   bit 0: push (MoveTo), bit 1: rate control on,
//	                  bit 2: stat, bits 3-7: rate-control policy id
//	window    uint32  multiblast window in packets (0 = single blast)
//	trMicros  uint64  retransmission timeout Tr in microseconds
//	offChunks uint32  stripe offset within the logical stream, in chunks
//	total     uint64  logical stream length in bytes (0 = standalone)
//
// The stripe fields let one logical transfer be split across parallel
// sessions: each stripe's REQ names its byte range (offset is always
// chunk-aligned, hence carried in chunks to keep the whole REQ inside a
// 64-byte ack-sized packet) and the length of the stream it belongs to, so
// a serving side can regenerate or address exactly the requested range.

// reqLen is the encoded TypeReq payload length without the optional name
// extension.
const reqLen = 39

// MaxReqName bounds the optional object-name extension: its length is
// carried in one byte.
const MaxReqName = 255

// MaxReqTarget bounds the optional copy-target address: it shares the
// second extension with the xflags byte, whose combined length is carried
// in one byte.
const MaxReqTarget = 254

// Req describes a requested transfer.
type Req struct {
	Bytes    uint64
	Chunk    uint32
	Strategy uint8
	Protocol uint8
	Push     bool
	Window   uint32
	TrMicros uint64

	// Adaptive carries the rate-control policy byte: zero asks for the
	// fixed schedule of the REQ parameters, a non-zero id asks the data's
	// sender to drive the transfer with that built-in rate controller
	// (the REQ parameters then only seed it; ids map to names through the
	// core policy table, 1 = the classic AIMD controller).
	Adaptive uint8

	// OffsetChunks is this stripe's byte offset within the logical stream,
	// in units of Chunk (stripe boundaries are chunk-aligned). Zero for an
	// unstriped transfer.
	OffsetChunks uint32

	// Total is the logical stream's full length in bytes when this request
	// is one stripe of a larger transfer; zero means the request stands
	// alone (the stream is exactly Bytes long).
	Total uint64

	// Name identifies the remote object the request addresses — a file
	// served by name from a store. Empty for anonymous (seeded or pushed)
	// transfers. Encoded as a trailing extension (one length byte plus the
	// bytes) so nameless requests keep the original 39-byte, ack-sized
	// encoding.
	Name string

	// Stat asks the serving side only for the named object's size (the
	// reply is an ack-sized FIN carrying the 8-byte length); no transfer
	// starts. Clients stat first so a pull — striped or not — can size its
	// REQ exactly.
	Stat bool

	// Copy asks the serving side to push the object named by Name to the
	// server at Target (third-party copy): the requester is only the
	// orchestrator, the data moves server-to-server. Rides the second
	// trailing extension's xflags byte — the original flags byte is fully
	// allocated (see features.go).
	Copy bool

	// Target is the destination server address of a third-party copy, in
	// the serving substrate's notation (host:port for UDP). Carried in the
	// second trailing extension; at most MaxReqTarget bytes.
	Target string
}

// Offset returns the stripe's byte offset within its logical stream.
func (r Req) Offset() uint64 { return uint64(r.OffsetChunks) * uint64(r.Chunk) }

// StreamBytes returns the logical stream's length: Total when striped,
// Bytes otherwise.
func (r Req) StreamBytes() uint64 {
	if r.Total > 0 {
		return r.Total
	}
	return r.Bytes
}

// ErrReqEncoding reports a malformed request payload.
var ErrReqEncoding = errors.New("wire: malformed request payload")

// EncodeReq serialises the request parameters. Names longer than
// MaxReqName (or targets longer than MaxReqTarget) cannot be carried in
// the one-byte length extensions; callers validate (see ValidReqName)
// before encoding, so an oversized field here is a programming error and
// panics.
func EncodeReq(r Req) []byte {
	if len(r.Name) > MaxReqName {
		panic(fmt.Sprintf("wire: request name %d bytes exceeds MaxReqName %d", len(r.Name), MaxReqName))
	}
	if len(r.Target) > MaxReqTarget {
		panic(fmt.Sprintf("wire: request target %d bytes exceeds MaxReqTarget %d", len(r.Target), MaxReqTarget))
	}
	// The second extension rides behind the name extension, so a request
	// that needs it emits the name extension too — with a zero length byte
	// when there is no name.
	ext2 := r.Copy || r.Target != ""
	n := reqLen
	if r.Name != "" || ext2 {
		n += 1 + len(r.Name)
	}
	if ext2 {
		n += 2 + len(r.Target)
	}
	buf := make([]byte, n)
	binary.BigEndian.PutUint64(buf[0:8], r.Bytes)
	binary.BigEndian.PutUint32(buf[8:12], r.Chunk)
	buf[12] = r.Strategy
	buf[13] = r.Protocol
	if r.Push {
		buf[14] |= reqFlagPush
	}
	if r.Adaptive != 0 {
		// The flag bit marks the policy field as meaningful; a set bit with
		// an empty field decodes as policy 0, the fixed schedule.
		buf[14] |= reqFlagAdaptive
		buf[14] |= (r.Adaptive & reqPolicyMask) << reqPolicyShift
	}
	if r.Stat {
		buf[14] |= reqFlagStat
	}
	binary.BigEndian.PutUint32(buf[15:19], r.Window)
	binary.BigEndian.PutUint64(buf[19:27], r.TrMicros)
	binary.BigEndian.PutUint32(buf[27:31], r.OffsetChunks)
	binary.BigEndian.PutUint64(buf[31:39], r.Total)
	if r.Name != "" || ext2 {
		buf[reqLen] = byte(len(r.Name))
		copy(buf[reqLen+1:], r.Name)
	}
	if ext2 {
		// [length][xflags][target...]: the length byte counts the xflags
		// byte plus the target, so the extension can grow more fields the
		// same way the fixed part did.
		off := reqLen + 1 + len(r.Name)
		buf[off] = byte(1 + len(r.Target))
		if r.Copy {
			buf[off+1] |= reqXflagCopy
		}
		copy(buf[off+2:], r.Target)
	}
	return buf
}

// ValidReqName reports whether a name fits the request encoding: non-empty,
// at most MaxReqName bytes, no NUL.
func ValidReqName(name string) bool {
	if name == "" || len(name) > MaxReqName {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] == 0 {
			return false
		}
	}
	return true
}

// DecodeReq parses request parameters. A payload longer than the fixed
// encoding carries the name extension, optionally followed by the second
// (xflags + copy-target) extension, and ends where its last extension ends:
// any byte past it is malformed. New features take xflags bits, which an
// older decoder reads as "feature absent" (see features.go).
func DecodeReq(payload []byte) (Req, error) {
	if len(payload) < reqLen {
		return Req{}, fmt.Errorf("%w: %d bytes", ErrReqEncoding, len(payload))
	}
	r := Req{
		Bytes:        binary.BigEndian.Uint64(payload[0:8]),
		Chunk:        binary.BigEndian.Uint32(payload[8:12]),
		Strategy:     payload[12],
		Protocol:     payload[13],
		Push:         payload[14]&reqFlagPush != 0,
		Stat:         payload[14]&reqFlagStat != 0,
		Window:       binary.BigEndian.Uint32(payload[15:19]),
		TrMicros:     binary.BigEndian.Uint64(payload[19:27]),
		OffsetChunks: binary.BigEndian.Uint32(payload[27:31]),
		Total:        binary.BigEndian.Uint64(payload[31:39]),
	}
	if payload[14]&reqFlagAdaptive != 0 {
		r.Adaptive = (payload[14] >> reqPolicyShift) & reqPolicyMask
	}
	end := reqLen
	if len(payload) > end {
		n := int(payload[end])
		if len(payload) < end+1+n {
			return Req{}, fmt.Errorf("%w: name extension truncated (%d of %d bytes)",
				ErrReqEncoding, len(payload)-end-1, n)
		}
		r.Name = string(payload[end+1 : end+1+n])
		end += 1 + n
	}
	if len(payload) > end {
		n2 := int(payload[end])
		if len(payload) < end+1+n2 {
			return Req{}, fmt.Errorf("%w: xflags extension truncated (%d of %d bytes)",
				ErrReqEncoding, len(payload)-end-1, n2)
		}
		if n2 > 0 {
			r.Copy = payload[end+1]&reqXflagCopy != 0
			r.Target = string(payload[end+2 : end+1+n2])
		}
		end += 1 + n2
	}
	if len(payload) > end {
		return Req{}, fmt.Errorf("%w: %d bytes past the last extension", ErrReqEncoding, len(payload)-end)
	}
	return r, nil
}
