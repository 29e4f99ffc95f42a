package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode: arbitrary bytes must never panic the decoder, and anything
// that decodes successfully must re-encode to a buffer that decodes to the
// same packet (when it carries no trailing junk).
func FuzzDecode(f *testing.F) {
	// Seed with valid packets of each type and classic corruptions.
	for _, p := range []*Packet{
		{Type: TypeData, Trans: 1, Seq: 5, Total: 64, Payload: []byte("seed")},
		{Type: TypeAck, Trans: 2, Seq: 64, Total: 64, Flags: FlagAllReceived},
		{Type: TypeNak, Trans: 3, Seq: 7},
		{Type: TypeReq, Trans: 4, Payload: EncodeReq(Req{Bytes: 1000, Chunk: 100})},
	} {
		buf, err := p.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		if len(buf) > 2 {
			bad := append([]byte(nil), buf...)
			bad[len(bad)/2] ^= 0x40
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xB1}, HeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decode(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		out, err := p.Encode(nil)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		q, err := decode(out)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if q.Type != p.Type || q.Trans != p.Trans || q.Seq != p.Seq ||
			q.Total != p.Total || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatal("decode/encode/decode not a fixed point")
		}
	})
}

// FuzzCorrupt: the corruption round-trip the adversary subsystem relies on.
// A single bit flip anywhere in a well-formed datagram must never decode to
// a valid packet: every byte of the exact-length buffer is covered by the
// checksum or a structural check (the strict length rule closes the RFC 1071
// zero-padding blind spot, so there are no uncovered bytes for the flip to
// miss). Restoring the bit must restore decodability.
func FuzzCorrupt(f *testing.F) {
	f.Add([]byte("some payload"), uint32(5), uint8(0), uint16(40))
	f.Add([]byte{}, uint32(0), uint8(3), uint16(0))
	f.Add(bytes.Repeat([]byte{0}, 200), uint32(9), uint8(1), uint16(150))
	f.Add([]byte{0xff}, uint32(1), uint8(7), uint16(191))

	f.Fuzz(func(t *testing.T, payload []byte, seq uint32, meta uint8, bit uint16) {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := &Packet{
			Type:    Type(1 + meta%4), // TypeData..TypeReq
			Flags:   meta >> 2,
			Trans:   seq ^ 0xa5a5,
			Seq:     seq,
			Total:   seq + 1,
			Payload: payload,
		}
		buf, err := p.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		b := int(bit) % (len(buf) * 8)
		buf[b/8] ^= 1 << (b % 8)
		if q, err := decode(buf); err == nil {
			t.Fatalf("single-bit flip at bit %d of %d bytes decoded to %v", b, len(buf), q)
		}
		buf[b/8] ^= 1 << (b % 8)
		q, err := decode(buf)
		if err != nil {
			t.Fatalf("restored frame no longer decodes: %v", err)
		}
		if q.Type != p.Type || q.Seq != p.Seq || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatal("restored frame decoded to a different packet")
		}
	})
}

// FuzzDecodeReq: arbitrary REQ payloads, trailing extensions included, must
// never panic DecodeReq, and every request it accepts whose name and target
// fit the encoding must re-encode to a fixed point: the encoding decodes to
// the same request and encodes back to the same bytes.
func FuzzDecodeReq(f *testing.F) {
	plain := EncodeReq(Req{Bytes: 1 << 20, Chunk: 1400, Window: 64, TrMicros: 100_000})
	named := EncodeReq(Req{Bytes: 4096, Chunk: 1000, Name: "dir/file.bin", Adaptive: 1})
	copyReq := EncodeReq(Req{Bytes: 8192, Chunk: 1400, Name: "obj", Target: "10.0.0.2:7000", Copy: true})
	f.Add(plain)
	f.Add(named)
	f.Add(copyReq)
	f.Add(EncodeReq(Req{Copy: true}))
	// Extension lengths that run past the payload.
	f.Add(append(append([]byte(nil), plain...), 9, 'a'))
	f.Add(copyReq[:len(copyReq)-3])
	f.Add(append(append([]byte(nil), named...), 200, 1))
	f.Add(plain[:reqLen-1])
	// One stray byte past the last extension (plain gets two empty
	// extensions first, named an empty second one).
	f.Add(append(append([]byte(nil), plain...), 0, 0, 0xAA))
	f.Add(append(append([]byte(nil), named...), 0, 0xAA))
	f.Add(append(append([]byte(nil), copyReq...), 0xAA))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReq(data)
		if err != nil {
			return
		}
		if r.Name != "" && !ValidReqName(r.Name) || len(r.Target) > MaxReqTarget {
			return
		}
		enc := EncodeReq(r)
		back, err := DecodeReq(enc)
		if err != nil {
			t.Fatalf("re-encoded request %+v does not decode: %v", r, err)
		}
		if back != r {
			t.Fatalf("decode/encode/decode not a fixed point:\n%+v\n%+v", r, back)
		}
		if again := EncodeReq(back); !bytes.Equal(again, enc) {
			t.Fatalf("encoding not a fixed point: % x, then % x", enc, again)
		}
	})
}

// FuzzDecodeMissing: the selective-NAK bitmap decoder must never panic and
// must round-trip whatever it accepts.
func FuzzDecodeMissing(f *testing.F) {
	good, _ := EncodeMissing([]uint32{1, 5, 9})
	f.Add(good)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 8, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		missing, err := DecodeMissing(data)
		if err != nil {
			return
		}
		re, err := EncodeMissing(missing)
		if err != nil {
			t.Fatalf("accepted bitmap failed to re-encode: %v", err)
		}
		back, err := DecodeMissing(re)
		if err != nil || len(back) != len(missing) {
			t.Fatalf("bitmap not a fixed point: %v %v", back, err)
		}
	})
}
