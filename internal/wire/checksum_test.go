package wire

import (
	"errors"
	"math/rand"
	"testing"
)

// refChecksum is RFC 1071 as written: big-endian 16-bit words, an odd
// trailing byte padded with zero, carries wrapped around, complemented.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
		sum = sum&0xffff + sum>>16
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// The carry-chain kernel equals the plain 16-bit loop on every length that
// exercises its 64-byte, 8-byte and tail stages, at every alignment of the
// buffer against the 8-byte loads, on random data and on the two patterns
// where one's-complement arithmetic has its double zero.
func TestChecksumMatchesReference(t *testing.T) {
	const maxLen = 2100
	rng := rand.New(rand.NewSource(1071))
	patterns := map[string][]byte{
		"random": make([]byte, maxLen+8),
		"zeros":  make([]byte, maxLen+8),
		"ones":   make([]byte, maxLen+8),
	}
	rng.Read(patterns["random"])
	for i := range patterns["ones"] {
		patterns["ones"][i] = 0xff
	}
	for name, buf := range patterns {
		for align := 0; align < 8; align++ {
			for n := 0; n <= maxLen; n++ {
				b := buf[align : align+n]
				if got, want := Checksum(b), refChecksum(b); got != want {
					t.Fatalf("%s, alignment %d, %d bytes: Checksum %04x, reference %04x", name, align, n, got, want)
				}
			}
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}) // RFC 1071 §3
	f.Add(make([]byte, 129))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("%d bytes: Checksum %04x, reference %04x", len(b), got, want)
		}
	})
}

// Decoding verifies the checksum by summing header and payload apart and
// leaves the payload's sum on the packet: it equals what a second pass over
// the bytes would compute, survives Clone, feeds SumAcc at odd offsets like
// the bytes themselves would, and is absent from a packet built by hand. A
// flipped payload bit is still a checksum error.
func TestDecodeKeepsPayloadSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dec Packet
	for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 999, 1000, 1001, MaxPayload} {
		payload := make([]byte, n)
		rng.Read(payload)
		buf, err := (&Packet{Type: TypeData, Trans: 9, Seq: 3, Total: 8, Payload: payload}).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&dec, buf); err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		sum, ok := dec.PayloadSum()
		if !ok || sum != ^Checksum(payload) {
			t.Fatalf("%d bytes: PayloadSum %04x %v, the payload's sum is %04x", n, sum, ok, ^Checksum(payload))
		}
		if csum, cok := dec.Clone().PayloadSum(); !cok || csum != sum {
			t.Errorf("%d bytes: Clone lost the payload sum", n)
		}
		for _, off := range []int{0, 1, 4097} {
			var bySum, byBytes SumAcc
			bySum.AddSumAt(off, sum)
			byBytes.AddAt(off, payload)
			if bySum.Sum16() != byBytes.Sum16() {
				t.Errorf("%d bytes at offset %d: AddSumAt %04x, AddAt %04x", n, off, bySum.Sum16(), byBytes.Sum16())
			}
		}
		if n > 0 {
			buf[HeaderSize+rng.Intn(n)] ^= 1 << rng.Intn(8)
			if err := DecodeInto(&dec, buf); !errors.Is(err, ErrChecksum) {
				t.Errorf("%d bytes, one payload bit flipped: %v, want ErrChecksum", n, err)
			}
		}
	}
	if _, ok := (&Packet{Type: TypeData, Payload: []byte("by hand")}).PayloadSum(); ok {
		t.Error("a packet built by hand claims a decode-computed payload sum")
	}
}
