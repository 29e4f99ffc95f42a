// Package wire defines the packet format spoken by every protocol in this
// repository and its binary codec.
//
// The paper's standalone experiments add no header beyond the Ethernet data
// link header (§2.1.1); the V kernel adds a small interkernel header (§2.2).
// This package plays the role of that interkernel header: a fixed 24-byte
// header carrying the packet type, transfer demultiplexing id, sequence
// number, total packet count, retransmission round, flags, a payload length
// and an Internet checksum (the "overall software checksum" Spector suggests
// for multi-packet transfers is provided separately by Checksum over the
// whole transfer).
//
// Simulated runs elide payload bytes and set VirtualSize so that a data
// packet occupies exactly params.DataPacketSize on the simulated wire and an
// ack exactly params.AckPacketSize, reproducing the paper's arithmetic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Type identifies the role of a packet.
type Type uint8

// Packet types.
const (
	// TypeData carries a chunk of the transfer.
	TypeData Type = 1 + iota
	// TypeAck is a positive acknowledgement. Seq holds the next sequence
	// number the receiver expects (cumulative); Seq == Total acknowledges
	// the whole transfer.
	TypeAck
	// TypeNak is a negative acknowledgement. For go-back-n it carries the
	// first missing sequence number in Seq; for selective retransmission it
	// additionally carries a bitmap of missing packets in the payload.
	TypeNak
	// TypeReq asks the peer to start a transfer (used by MoveFrom, where
	// the data flows from the remote machine).
	TypeReq
	// TypeBusy is the server's admission refusal: the REQ was valid but the
	// server is at its session cap (or draining) and will not open a
	// session. Seq carries a retry-after hint in milliseconds; clients back
	// off at least that long before re-requesting. Best-effort and
	// ack-sized — a lost BUSY just means the client rediscovers the
	// condition on its next REQ retransmission.
	TypeBusy
)

// String returns the conventional short name of the type.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeAck:
		return "ACK"
	case TypeNak:
		return "NAK"
	case TypeReq:
		return "REQ"
	case TypeBusy:
		return "BUSY"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Flag bits.
const (
	// FlagLast marks the final data packet of a transmission round; its
	// arrival prompts the receiver to respond (§3.2.3: "the last packet is
	// sent reliably").
	FlagLast uint8 = 1 << iota
	// FlagAllReceived is set on a TypeAck that acknowledges the entire
	// transfer.
	FlagAllReceived
	// FlagDone is set on a best-effort TypeAck the *sender* emits after
	// the final acknowledgement arrives: it releases the receiver from its
	// post-completion linger immediately instead of waiting out the linger
	// timeout (which remains the fallback when the FIN is lost). It is
	// sent after the elapsed-time measurement closes, so it never affects
	// the paper's numbers.
	FlagDone
)

// Codec constants.
const (
	// Magic identifies blastlan packets on the wire.
	Magic uint16 = 0xB1A5
	// Version is the codec version.
	Version uint8 = 1
	// HeaderSize is the encoded header length in bytes.
	HeaderSize = 24
	// MaxPayload is the payload that keeps a frame within the paper's
	// 1536-byte maximum Ethernet packet (§2.1.2) — the default bound for
	// standard-frame transfers (NAK bitmaps, the paper's experiments).
	MaxPayload = 1536 - HeaderSize
	// AbsMaxPayload is the codec's hard payload bound: the largest UDP/IPv4
	// datagram (65507 bytes) minus the header. Transfers over jumbo-frame
	// links may use chunk sizes between MaxPayload and this limit; the
	// substrate validates the frame against its own MTU (see
	// udplan.Endpoint.ValidateConfig).
	AbsMaxPayload = 65507 - HeaderSize
)

// FrameBytes returns the packet's on-wire datagram size: header plus
// payload, exactly what Encode/EncodeInto produce. It names the segment-size
// invariant the GSO datapath relies on: every mid-window data frame of a
// transfer has the same FrameBytes (HeaderSize + ChunkSize), and the only
// shorter data frame — the transfer's tail chunk — always carries FlagLast,
// which batching substrates flush separately. A flushed frame ring is
// therefore runs of equal-sized frames with at most one shorter trailing
// frame: precisely the shape a UDP_SEGMENT superbuffer may carry (see
// internal/udplan's GSO tier and core's geometry test).
func FrameBytes(p *Packet) int { return HeaderSize + len(p.Payload) }

// Codec errors.
var (
	ErrShort    = errors.New("wire: buffer too short")
	ErrLength   = errors.New("wire: datagram length mismatch")
	ErrMagic    = errors.New("wire: bad magic")
	ErrVersion  = errors.New("wire: unsupported version")
	ErrChecksum = errors.New("wire: checksum mismatch")
	ErrPayload  = errors.New("wire: payload too large")
	ErrType     = errors.New("wire: unknown packet type")
)

// Packet is the unit of exchange between protocol engines. It is used both
// encoded (real sockets) and in-memory (simulation).
type Packet struct {
	Type    Type
	Flags   uint8
	Attempt uint8  // retransmission round, for diagnostics (saturates at 255)
	Trans   uint32 // transfer id, for demultiplexing
	Seq     uint32 // sequence number / cumulative ack / first missing
	Total   uint32 // number of data packets in the transfer

	// psum is the payload's folded one's-complement sum, valid when summed:
	// DecodeInto has it from verifying the checksum (see PayloadSum).
	psum   uint16
	summed bool

	// Payload is the chunk bytes (TypeData), the missing-packet bitmap
	// (selective TypeNak) or the transfer request parameters (TypeReq).
	Payload []byte

	// VirtualSize, when non-zero, is the size in bytes this packet occupies
	// on a *simulated* wire. It is never encoded. Simulation runs elide
	// payload bytes and carry sizes here instead so that the paper's packet
	// sizes are reproduced exactly.
	VirtualSize int

	// SimMissing carries the decoded selective-NAK missing list for
	// simulated packets whose payload bytes are elided. Never encoded.
	SimMissing []uint32
}

// WireSize returns the number of bytes the packet occupies on the wire:
// VirtualSize if set, otherwise the encoded size.
func (p *Packet) WireSize() int {
	if p.VirtualSize > 0 {
		return p.VirtualSize
	}
	return HeaderSize + len(p.Payload)
}

// PayloadSum returns the one's-complement sum of the payload (^Checksum of
// it) when decoding already computed it — what SumAcc.AddSumAt takes, so a
// receiver's transfer checksum does not read the bytes again. ok is false on
// a packet built by hand; Payload must not be altered after decoding.
func (p *Packet) PayloadSum() (sum uint16, ok bool) { return p.psum, p.summed }

// IsLast reports whether the packet closes a transmission round.
func (p *Packet) IsLast() bool { return p.Flags&FlagLast != 0 }

// String renders a compact human-readable form used in traces and logs.
func (p *Packet) String() string {
	return fmt.Sprintf("%s t%d seq=%d/%d a%d f%02x %dB",
		p.Type, p.Trans, p.Seq, p.Total, p.Attempt, p.Flags, p.WireSize())
}

// Clone returns a deep copy of the packet. Simulated links deliver clones so
// that a retransmitting sender can safely reuse its buffers, mirroring the
// copy semantics of a real interface.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	if p.SimMissing != nil {
		q.SimMissing = make([]uint32, len(p.SimMissing))
		copy(q.SimMissing, p.SimMissing)
	}
	return &q
}

// Encode appends the encoded packet to dst and returns the result. When dst
// has sufficient capacity the encode performs no allocation, so a reused
// buffer (buf[:0]) makes the round trip allocation-free.
func (p *Packet) Encode(dst []byte) ([]byte, error) {
	if len(p.Payload) > AbsMaxPayload {
		return dst, fmt.Errorf("%w: %d > %d", ErrPayload, len(p.Payload), AbsMaxPayload)
	}
	off := len(dst)
	need := HeaderSize + len(p.Payload)
	if cap(dst)-off >= need {
		dst = dst[:off+need]
	} else {
		dst = append(dst, make([]byte, need)...)
	}
	p.encodeTo(dst[off:])
	return dst, nil
}

// EncodeInto encodes the packet at the start of buf — a fixed, caller-owned
// frame slot — and returns the encoded length. It performs no allocation,
// which is what lets a batched sender encode an entire blast window into a
// reusable frame ring. buf shorter than the encoded packet is an ErrShort.
func (p *Packet) EncodeInto(buf []byte) (int, error) {
	if len(p.Payload) > AbsMaxPayload {
		return 0, fmt.Errorf("%w: %d > %d", ErrPayload, len(p.Payload), AbsMaxPayload)
	}
	need := HeaderSize + len(p.Payload)
	if len(buf) < need {
		return 0, fmt.Errorf("%w: frame needs %d bytes, slot has %d", ErrShort, need, len(buf))
	}
	p.encodeTo(buf[:need])
	return need, nil
}

// encodeTo fills b (whose length is exactly header+payload) with the encoded
// packet, checksum included.
func (p *Packet) encodeTo(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2] = Version
	b[3] = uint8(p.Type)
	b[4] = p.Flags
	b[5] = p.Attempt
	binary.BigEndian.PutUint32(b[6:10], p.Trans)
	binary.BigEndian.PutUint32(b[10:14], p.Seq)
	binary.BigEndian.PutUint32(b[14:18], p.Total)
	binary.BigEndian.PutUint16(b[18:20], uint16(len(p.Payload)))
	// b[20:22] checksum, filled below; b[22:24] reserved (zero). Cleared
	// explicitly: a reused buffer carries stale bytes.
	b[20], b[21], b[22], b[23] = 0, 0, 0, 0
	copy(b[HeaderSize:], p.Payload)
	sum := Checksum(b)
	binary.BigEndian.PutUint16(b[20:22], sum)
}

// DecodeInto parses one packet from buf into p, overwriting every field. buf
// must contain exactly one encoded packet (datagram semantics; trailing
// bytes are an ErrLength, see above). The payload aliases buf; callers that
// retain the packet beyond the life of buf must Clone it. DecodeInto
// performs no allocation, so protocol receive loops can reuse one Packet
// value per connection.
func DecodeInto(p *Packet, buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: %d < %d", ErrShort, len(buf), HeaderSize)
	}
	if binary.BigEndian.Uint16(buf[0:2]) != Magic {
		return ErrMagic
	}
	if buf[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	t := Type(buf[3])
	if t < TypeData || t > TypeBusy {
		return fmt.Errorf("%w: %d", ErrType, buf[3])
	}
	plen := int(binary.BigEndian.Uint16(buf[18:20]))
	if len(buf) < HeaderSize+plen {
		return fmt.Errorf("%w: need %d payload bytes, have %d", ErrShort, plen, len(buf)-HeaderSize)
	}
	if len(buf) != HeaderSize+plen {
		// Datagram semantics: the buffer is exactly one packet. Enforcing it
		// closes the Internet checksum's blind spot — a corrupted length
		// field that zero-truncates or zero-extends the summed region would
		// otherwise slip through (RFC 1071 sums are invariant under zero
		// padding).
		return fmt.Errorf("%w: %d bytes for a %d-byte payload", ErrLength, len(buf), plen)
	}
	// Verify the checksum with the checksum field zeroed. The header is an
	// even number of bytes, so header and payload sum separately and the
	// payload's sum stays on the packet for the transfer checksum to reuse.
	want := binary.BigEndian.Uint16(buf[20:22])
	psum := sum16(buf[HeaderSize:])
	if got := checksumZeroed(add16(sum16(buf[:HeaderSize]), psum), want); got != want {
		return fmt.Errorf("%w: got %04x want %04x", ErrChecksum, got, want)
	}
	*p = Packet{
		Type:    t,
		Flags:   buf[4],
		Attempt: buf[5],
		Trans:   binary.BigEndian.Uint32(buf[6:10]),
		Seq:     binary.BigEndian.Uint32(buf[10:14]),
		Total:   binary.BigEndian.Uint32(buf[14:18]),
		psum:    psum,
		summed:  true,
	}
	if plen > 0 {
		p.Payload = buf[HeaderSize : HeaderSize+plen]
	}
	return nil
}

// Checksum computes the 16-bit one's-complement Internet checksum (RFC 1071)
// of b. A buffer whose checksum field already holds the Checksum of the rest
// verifies by recomputation in DecodeInto.
func Checksum(b []byte) uint16 { return ^sum16(b) }

// sum16 returns the folded one's-complement sum of b as big-endian 16-bit
// words (a trailing odd byte is padded with zero): zero only for all-zero
// input. The sum is byte-order independent up to one final swap (RFC 1071
// §2B), so the loop adds little-endian 64-bit loads — no per-word swap —
// down two independent add-with-carry chains, 64 bytes per iteration, each
// carry wrapping into its chain's next add, and swaps the folded result once.
func sum16(b []byte) uint16 {
	var s0, s1, c0, c1 uint64
	for len(b) >= 64 {
		s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(b), c0)
		s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(b[8:]), c1)
		s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(b[16:]), c0)
		s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(b[24:]), c1)
		s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(b[32:]), c0)
		s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(b[40:]), c1)
		s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(b[48:]), c0)
		s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(b[56:]), c1)
		b = b[64:]
	}
	for len(b) >= 8 {
		s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(b), c0)
		b = b[8:]
	}
	var tail uint64 // the last 0-7 bytes, as the low end of one more word
	for i, x := range b {
		tail |= uint64(x) << (8 * i)
	}
	s0, c0 = bits.Add64(s0, tail, c0)
	s0, c0 = bits.Add64(s0, s1, c0)
	s0, c0 = bits.Add64(s0, c1, c0)
	return bits.ReverseBytes16(fold16(s0>>32 + s0&0xffffffff + c0))
}

// fold16 reduces a deferred one's-complement sum to 16 bits.
func fold16(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// add16 is the one's-complement sum of two folded sums; adding ^x subtracts
// x, exactly whenever the difference is not a sum of nothing but zeros.
func add16(a, b uint16) uint16 { return fold16(uint64(a) + uint64(b)) }

// checksumZeroed is the Checksum of a buffer whose folded sum is sum, taken
// as if its 16-bit checksum field, which holds field, were zero.
func checksumZeroed(sum, field uint16) uint16 { return ^add16(sum, ^field) }
