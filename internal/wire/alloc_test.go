package wire

import "testing"

// TestCodecRoundTripAllocFree pins the codec hot path at zero allocations:
// Encode into a capacity-sufficient reused buffer and DecodeInto a reused
// Packet must not touch the heap.
func TestCodecRoundTripAllocFree(t *testing.T) {
	pkt := &Packet{Type: TypeData, Trans: 7, Seq: 41, Total: 64,
		Payload: make([]byte, 1000)}
	buf := make([]byte, 0, 1100)
	var dec Packet
	allocs := testing.AllocsPerRun(200, func() {
		out, err := pkt.Encode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&dec, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec round trip allocates %.1f times per op, want 0", allocs)
	}
	if dec.Seq != pkt.Seq || dec.Total != pkt.Total || len(dec.Payload) != len(pkt.Payload) {
		t.Fatalf("round trip corrupted packet: %+v", dec)
	}
}

// TestChecksumZeroedMatchesNaive cross-checks the one's-complement
// subtraction of the checksum word against a naive masked recomputation.
func TestChecksumZeroedMatchesNaive(t *testing.T) {
	naive := func(b []byte, off int) uint16 {
		masked := make([]byte, len(b))
		copy(masked, b)
		masked[off], masked[off+1] = 0, 0
		return Checksum(masked)
	}
	for _, n := range []int{24, 25, 100, 1024, 1499} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + 17)
		}
		for _, off := range []int{0, 2, 20, 22} {
			field := uint16(b[off])<<8 | uint16(b[off+1])
			if got, want := checksumZeroed(^Checksum(b), field), naive(b, off); got != want {
				t.Fatalf("len=%d off=%d: got %04x want %04x", n, off, got, want)
			}
		}
	}
}
