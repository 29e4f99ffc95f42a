package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Type:    TypeData,
		Flags:   FlagLast,
		Attempt: 3,
		Trans:   0xdeadbeef,
		Seq:     41,
		Total:   64,
		Payload: []byte("hello, ethernet"),
	}
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSize+len(p.Payload) {
		t.Fatalf("encoded length = %d", len(buf))
	}
	q, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != p.Type || q.Flags != p.Flags || q.Attempt != p.Attempt ||
		q.Trans != p.Trans || q.Seq != p.Seq || q.Total != p.Total ||
		!bytes.Equal(q.Payload, p.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", q, p)
	}
}

// Property: any packet with a valid type and payload round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(typ uint8, flags, attempt uint8, trans, seq, total uint32, payload []byte) bool {
		p := &Packet{
			Type:    Type(typ%4) + TypeData,
			Flags:   flags,
			Attempt: attempt,
			Trans:   trans,
			Seq:     seq,
			Total:   total,
		}
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		if len(payload) > 0 {
			p.Payload = payload
		}
		buf, err := p.Encode(nil)
		if err != nil {
			return false
		}
		q, err := decode(buf)
		if err != nil {
			return false
		}
		return q.Type == p.Type && q.Flags == p.Flags && q.Attempt == p.Attempt &&
			q.Trans == p.Trans && q.Seq == p.Seq && q.Total == p.Total &&
			bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte("prefix")
	p := &Packet{Type: TypeAck, Seq: 7}
	buf, err := p.Encode(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, prefix) {
		t.Error("Encode must append to dst")
	}
	if _, err := decode(buf[len(prefix):]); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	p := &Packet{Type: TypeData, Seq: 1, Total: 2, Payload: []byte{1, 2, 3}}
	good, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short", func(t *testing.T) {
		if _, err := decode(good[:HeaderSize-1]); !errors.Is(err, ErrShort) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := decode(bad); !errors.Is(err, ErrMagic) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = 99
		if _, err := decode(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[3] = 0
		if _, err := decode(bad); !errors.Is(err, ErrType) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		if _, err := decode(good[:len(good)-1]); !errors.Is(err, ErrShort) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("trailing-junk", func(t *testing.T) {
		// Datagram semantics: exactly one packet per buffer. Zero padding in
		// particular must be rejected — the Internet checksum alone cannot
		// see it (RFC 1071 sums are zero-padding invariant), which is how a
		// corrupted length field would otherwise smuggle bytes in or out.
		long := append(append([]byte(nil), good...), 0, 0)
		if _, err := decode(long); !errors.Is(err, ErrLength) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("payload-too-large", func(t *testing.T) {
		// Jumbo-frame payloads beyond the paper's MaxPayload are legal (the
		// substrate MTU check gates them); the codec's hard bound is the
		// largest UDP datagram.
		big := &Packet{Type: TypeData, Payload: make([]byte, AbsMaxPayload+1)}
		if _, err := big.Encode(nil); !errors.Is(err, ErrPayload) {
			t.Errorf("got %v", err)
		}
		jumbo := &Packet{Type: TypeData, Payload: make([]byte, MaxPayload+1)}
		if _, err := jumbo.Encode(nil); err != nil {
			t.Errorf("jumbo payload rejected: %v", err)
		}
	})
}

// Property: flipping any single byte of an encoded packet is detected (by
// the checksum or a structural check). This is the paper's reliability
// baseline for header integrity.
func TestChecksumDetectsCorruption(t *testing.T) {
	p := &Packet{Type: TypeData, Trans: 1, Seq: 5, Total: 9, Payload: []byte("payload bytes here")}
	good, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x5a
		if _, err := decode(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestChecksumRFC1071(t *testing.T) {
	// Worked example from RFC 1071 §3: the one's-complement sum of
	// 00 01 f2 03 f4 f5 f6 f7 is ddf2, so the checksum is ^ddf2 = 220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Errorf("checksum = %04x, want 220d", got)
	}
	// Odd length: trailing byte is padded with zero on the right.
	odd := []byte{0x01}
	if got := Checksum(odd); got != ^uint16(0x0100) {
		t.Errorf("odd checksum = %04x", got)
	}
	if got := Checksum(nil); got != 0xffff {
		t.Errorf("empty checksum = %04x, want ffff", got)
	}
}

func TestWireSize(t *testing.T) {
	p := &Packet{Type: TypeData, Payload: make([]byte, 100)}
	if got := p.WireSize(); got != HeaderSize+100 {
		t.Errorf("WireSize = %d", got)
	}
	p.VirtualSize = 1024
	if got := p.WireSize(); got != 1024 {
		t.Errorf("VirtualSize override = %d", got)
	}
}

func TestClone(t *testing.T) {
	p := &Packet{Type: TypeData, Seq: 1, Payload: []byte{1, 2, 3}}
	q := p.Clone()
	q.Payload[0] = 9
	q.Seq = 2
	if p.Payload[0] != 1 || p.Seq != 1 {
		t.Error("clone must not share state")
	}
	// Nil payload stays nil.
	if c := (&Packet{Type: TypeAck}).Clone(); c.Payload != nil {
		t.Error("nil payload should clone to nil")
	}
}

func TestString(t *testing.T) {
	p := &Packet{Type: TypeNak, Trans: 2, Seq: 3, Total: 64}
	s := p.String()
	for _, want := range []string{"NAK", "t2", "seq=3/64"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if got := Type(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown type String() = %q", got)
	}
}

func TestMissingBitmapRoundTrip(t *testing.T) {
	cases := [][]uint32{
		{0},
		{5},
		{1, 2, 3},
		{0, 63},
		{7, 3, 5}, // unsorted input
		{100, 200, 300},
	}
	for _, missing := range cases {
		payload, err := EncodeMissing(missing)
		if err != nil {
			t.Fatalf("%v: %v", missing, err)
		}
		got, err := DecodeMissing(payload)
		if err != nil {
			t.Fatalf("%v: %v", missing, err)
		}
		want := append([]uint32(nil), missing...)
		sortU32(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %v -> %v", missing, got)
		}
	}
}

func sortU32(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Property: random missing sets round-trip through the bitmap.
func TestMissingBitmapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		base := uint32(rng.Intn(1 << 20))
		set := map[uint32]bool{}
		for i := 0; i < n; i++ {
			set[base+uint32(rng.Intn(2000))] = true
		}
		var missing []uint32
		for s := range set {
			missing = append(missing, s)
		}
		payload, err := EncodeMissing(missing)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMissing(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(set) {
			t.Fatalf("decoded %d, want %d", len(got), len(set))
		}
		for _, s := range got {
			if !set[s] {
				t.Fatalf("decoded unexpected seq %d", s)
			}
		}
	}
}

func TestMissingBitmapErrors(t *testing.T) {
	if _, err := EncodeMissing(nil); err == nil {
		t.Error("empty missing should error")
	}
	if _, err := EncodeMissing([]uint32{0, MaxMissingBits + 5}); err == nil {
		t.Error("oversized span should error")
	}
	if _, err := DecodeMissing([]byte{1, 2}); err == nil {
		t.Error("short payload should error")
	}
	// count = 0
	bad := make([]byte, 8)
	if _, err := DecodeMissing(bad); err == nil {
		t.Error("zero count should error")
	}
	// count says 16 bits but no bitmap bytes follow
	bad2 := make([]byte, 8)
	bad2[7] = 16
	if _, err := DecodeMissing(bad2); err == nil {
		t.Error("truncated bitmap should error")
	}
	// valid length, but all-zero bitmap
	bad3 := make([]byte, 8+2)
	bad3[7] = 16
	if _, err := DecodeMissing(bad3); err == nil {
		t.Error("empty bitmap should error")
	}
}

func TestReqRoundTrip(t *testing.T) {
	r := Req{Bytes: 1 << 30, Chunk: 1000, Strategy: 3, Protocol: 2,
		Push: true, Window: 64, TrMicros: 173_000}
	got, err := DecodeReq(EncodeReq(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip %+v -> %+v", r, got)
	}
	// Pull direction round-trips too.
	r.Push = false
	if got, _ := DecodeReq(EncodeReq(r)); got != r {
		t.Errorf("pull round trip %+v -> %+v", r, got)
	}
	if _, err := DecodeReq([]byte{1, 2, 3}); err == nil {
		t.Error("short req should error")
	}
	// A REQ still fits in an ack-sized 64-byte packet.
	if HeaderSize+len(EncodeReq(r)) > 64 {
		t.Errorf("REQ packet is %d bytes", HeaderSize+len(EncodeReq(r)))
	}
	// Stripe + adaptive fields round-trip independently of push.
	r = Req{Bytes: 8 << 20, Chunk: 1000, Adaptive: 1,
		OffsetChunks: 16384, Total: 64 << 20, Window: 128}
	got, err = DecodeReq(EncodeReq(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("stripe round trip %+v -> %+v", r, got)
	}
	// Every policy id the flags byte can carry round-trips.
	for id := uint8(1); id <= reqPolicyMask; id++ {
		r.Adaptive = id
		if got, _ := DecodeReq(EncodeReq(r)); got.Adaptive != id {
			t.Errorf("policy %d decoded as %d", id, got.Adaptive)
		}
	}
	if got.Offset() != 16384*1000 {
		t.Errorf("Offset() = %d", got.Offset())
	}
	if got.StreamBytes() != 64<<20 {
		t.Errorf("StreamBytes() = %d", got.StreamBytes())
	}
	if un := (Req{Bytes: 99}); un.StreamBytes() != 99 {
		t.Errorf("unstriped StreamBytes() = %d", un.StreamBytes())
	}
}

func TestReqNameExtension(t *testing.T) {
	// Nameless requests keep the original ack-sized 39-byte encoding.
	if n := len(EncodeReq(Req{Bytes: 1})); n != 39 {
		t.Errorf("nameless REQ is %d bytes, want 39", n)
	}
	// Named + stat round-trips, including alongside stripe fields.
	r := Req{Bytes: 4 << 20, Chunk: 1400, Name: "models/weights.bin",
		Stat: true, OffsetChunks: 512, Total: 16 << 20, Window: 32}
	got, err := DecodeReq(EncodeReq(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("named round trip %+v -> %+v", r, got)
	}
	// Old decoders only read the fixed 39 bytes; the extension must leave
	// them intact.
	enc := EncodeReq(r)
	fixed, err := DecodeReq(enc[:39])
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Bytes != r.Bytes || fixed.Name != "" {
		t.Errorf("fixed prefix decode = %+v", fixed)
	}
	// A REQ ends where its last extension ends: no encoder emits bytes past
	// the second extension, so a decoder refuses them rather than guess at
	// their meaning. (Bytes directly after the name extension are the
	// second extension — see TestReqCopyExtension.)
	withExt2 := r
	withExt2.Copy, withExt2.Target = true, "peer:7025"
	enc2 := EncodeReq(withExt2)
	if got, err := DecodeReq(append(append([]byte{}, enc2...), 0xAA, 0xBB)); !errors.Is(err, ErrReqEncoding) {
		t.Errorf("trailing bytes past the last extension: %+v, %v, want ErrReqEncoding", got, err)
	}
	// A truncated name extension is malformed, not silently shortened.
	if _, err := DecodeReq(enc[:len(enc)-3]); err == nil {
		t.Error("truncated name extension should error")
	}
	// Max-length names encode; longer ones are a caller bug.
	long := Req{Bytes: 1, Name: strings.Repeat("x", MaxReqName)}
	if got, err := DecodeReq(EncodeReq(long)); err != nil || len(got.Name) != MaxReqName {
		t.Errorf("max-length name: %d bytes, %v", len(got.Name), err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-long name should panic at encode")
			}
		}()
		EncodeReq(Req{Bytes: 1, Name: strings.Repeat("x", MaxReqName+1)})
	}()
	// ValidReqName gates what EncodeReq accepts.
	for name, want := range map[string]bool{
		"":                                false,
		"a":                               true,
		"dir/file":                        true,
		"bad\x00name":                     false,
		strings.Repeat("x", MaxReqName):   true,
		strings.Repeat("x", MaxReqName+1): false,
	} {
		if ValidReqName(name) != want {
			t.Errorf("ValidReqName(%q) != %v", name, want)
		}
	}
}

// The paper's NAK for a 64-packet blast must fit in an ack-sized packet.
func TestNakFitsInAckPacket(t *testing.T) {
	var missing []uint32
	for i := uint32(0); i < 64; i += 2 {
		missing = append(missing, i)
	}
	payload, err := EncodeMissing(missing)
	if err != nil {
		t.Fatal(err)
	}
	if HeaderSize+len(payload) > 64 {
		t.Errorf("NAK packet is %d bytes, exceeds the 64-byte ack size", HeaderSize+len(payload))
	}
}

// The policy field of the flags byte decodes as what it says: zero is the
// fixed schedule whatever the adaptive flag bit claims (no encoder of this
// protocol ever sent the lone bit, so it is not read as "aimd"), and a field
// without its flag bit is not a policy request at all.
func TestDecodeReqPolicyField(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags byte // OR-ed into byte 14 of a policy-free encoding
		want  uint8
	}{
		{"no flag, empty field", 0, 0},
		{"lone adaptive bit", reqFlagAdaptive, 0},
		{"flag and field", reqFlagAdaptive | 5<<reqPolicyShift, 5},
		{"field without its flag", 5 << reqPolicyShift, 0},
	} {
		buf := EncodeReq(Req{Bytes: 1 << 20, Chunk: 1000})
		buf[14] |= tc.flags
		got, err := DecodeReq(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Adaptive != tc.want {
			t.Errorf("%s: decoded policy %d, want %d", tc.name, got.Adaptive, tc.want)
		}
	}
}

// decode is DecodeInto into a fresh packet.
func decode(buf []byte) (*Packet, error) {
	p := new(Packet)
	return p, DecodeInto(p, buf)
}
