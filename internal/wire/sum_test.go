package wire

import (
	"math/rand"
	"testing"
)

// SumAcc over chunks delivered in any order, with any chunking (odd sizes,
// odd offsets), must equal Checksum over the whole stream.
func TestSumAccMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		data := make([]byte, n)
		rng.Read(data)
		want := Checksum(data)

		// Cut the stream into random chunks.
		type chunk struct {
			off int
			b   []byte
		}
		var chunks []chunk
		for off := 0; off < n; {
			l := 1 + rng.Intn(700)
			if off+l > n {
				l = n - off
			}
			chunks = append(chunks, chunk{off, data[off : off+l]})
			off += l
		}
		// Deliver in a random order.
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })

		var acc SumAcc
		for _, c := range chunks {
			acc.AddAt(c.off, c.b)
		}
		if got := acc.Sum16(); got != want {
			t.Fatalf("trial %d (n=%d, %d chunks): acc %04x, Checksum %04x",
				trial, n, len(chunks), got, want)
		}
	}
}

// Merging per-stripe accumulators (each folding a disjoint byte range in
// its own stripe's coordinates) with AddChecksumAt at the stripe's stream
// offset must equal the whole-stream checksum, for any stripe cut —
// including odd-offset boundaries. This is how a striped receiver combines
// its stripes' checksums.
func TestSumAccMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(4000)
		data := make([]byte, n)
		rng.Read(data)
		want := Checksum(data)

		stripes := 1 + rng.Intn(5)
		accs := make([]SumAcc, stripes)
		// Cut into `stripes` contiguous ranges at random boundaries, then
		// feed each range to its own accumulator in chunks.
		bounds := []int{0}
		for i := 1; i < stripes; i++ {
			bounds = append(bounds, rng.Intn(n+1))
		}
		bounds = append(bounds, n)
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				bounds[i] = bounds[i-1]
			}
		}
		for s := 0; s < stripes; s++ {
			for off := bounds[s]; off < bounds[s+1]; {
				l := 1 + rng.Intn(300)
				if off+l > bounds[s+1] {
					l = bounds[s+1] - off
				}
				accs[s].AddAt(off-bounds[s], data[off:off+l])
				off += l
			}
		}
		var total SumAcc
		for s := range accs {
			total.AddChecksumAt(bounds[s], accs[s].Sum16())
		}
		if got := total.Sum16(); got != want {
			t.Fatalf("trial %d (n=%d, %d stripes): merged %04x, Checksum %04x",
				trial, n, stripes, got, want)
		}
	}
}

// EncodeInto must produce byte-identical frames to Encode, report short
// slots, and perform no allocation.
func TestEncodeInto(t *testing.T) {
	pkt := &Packet{Type: TypeData, Flags: FlagLast, Attempt: 2, Trans: 9,
		Seq: 41, Total: 64, Payload: []byte("chunk bytes")}
	viaEncode, err := pkt.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, 2048)
	n, err := pkt.EncodeInto(slot)
	if err != nil {
		t.Fatal(err)
	}
	if string(slot[:n]) != string(viaEncode) {
		t.Error("EncodeInto and Encode frames differ")
	}
	if _, err := pkt.EncodeInto(make([]byte, n-1)); err == nil {
		t.Error("short slot accepted")
	}
	big := &Packet{Type: TypeData, Payload: make([]byte, AbsMaxPayload+1)}
	if _, err := big.EncodeInto(make([]byte, 1<<17)); err == nil {
		t.Error("oversized payload accepted")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pkt.EncodeInto(slot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeInto allocates %.1f per op", allocs)
	}
}
