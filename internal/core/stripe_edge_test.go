package core

import (
	"bytes"
	"math/rand"
	"testing"

	"blastlan/internal/wire"
)

// Targeted StripeMerger/MergeStripeChecksums edge cases: odd stripe
// boundaries (odd chunk sizes make every stripe offset odd), single-chunk
// stripes, a zero-length synthetic final stripe, and merge-order
// independence — stripes complete in arbitrary order and the fold must not
// care.
func TestStripeMergerEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	cases := []struct {
		name    string
		total   int
		chunk   int
		streams int
	}{
		{"odd-chunk-odd-boundaries", 777, 7, 4}, // offsets 7k: odd stripe starts
		{"single-chunk-stripes", 5 * 11, 11, 8}, // fewer chunks than streams: one stripe per chunk
		{"short-final-chunk", 1000, 3, 3},       // 334 chunks, final chunk 1 byte
		{"one-byte-transfer", 1, 9, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.total)
			rng.Read(payload)
			want := TransferChecksum(payload)
			plan := PlanStripes(tc.total, tc.chunk, tc.streams)

			out := make([]byte, tc.total)
			m := NewStripeMerger(func(off int, b []byte) { copy(out[off:], b) })
			sums := make([]uint16, len(plan))
			// Deliver stripes in reverse completion order with shuffled
			// chunks inside each, accumulating stripe-local checksums like
			// the engines do.
			for i := len(plan) - 1; i >= 0; i-- {
				s := plan[i]
				sink := m.StripeSink(s)
				var acc wire.SumAcc
				order := rng.Perm(stripeChunks(s, tc.chunk))
				for _, seq := range order {
					lo := seq * tc.chunk
					hi := lo + tc.chunk
					if hi > s.Bytes {
						hi = s.Bytes
					}
					acc.AddAt(lo, payload[s.Offset+lo:s.Offset+hi])
					sink(lo, payload[s.Offset+lo:s.Offset+hi])
				}
				sums[i] = acc.Sum16()
			}
			if !bytes.Equal(out, payload) {
				t.Fatal("merger did not reassemble the payload")
			}
			if got := MergeStripeChecksums(plan, sums); got != want {
				t.Fatalf("merged checksum %04x, want %04x", got, want)
			}

			// Merge-order independence: fold the per-stripe checksums in a
			// different order than the plan's and compare.
			var acc wire.SumAcc
			for _, i := range rng.Perm(len(plan)) {
				acc.AddChecksumAt(plan[i].Offset, sums[i])
			}
			if got := acc.Sum16(); got != want {
				t.Fatalf("shuffled merge %04x, want %04x", got, want)
			}
		})
	}
}

// TestMergeStripeChecksumsZeroLengthStripe pins the degenerate plan a
// failed or synthetic fan-out can produce: a zero-length stripe (its engine
// never ran, its checksum is the zero value) must merge as a no-op.
func TestMergeStripeChecksumsZeroLengthStripe(t *testing.T) {
	payload := []byte("stripe me gently, but completely, across the network")
	want := TransferChecksum(payload)
	plan := []Stripe{
		{Index: 0, Offset: 0, Bytes: 20},
		{Index: 1, Offset: 20, Bytes: len(payload) - 20},
		{Index: 2, Offset: len(payload), Bytes: 0}, // zero-length final stripe
	}
	sums := []uint16{
		TransferChecksum(payload[:20]),
		TransferChecksum(payload[20:]),
		0, // an engine that never ran
	}
	if got := MergeStripeChecksums(plan, sums); got != want {
		t.Fatalf("merged %04x, want %04x", got, want)
	}
	// The empty stream's real checksum must behave identically.
	sums[2] = TransferChecksum(nil)
	if got := MergeStripeChecksums(plan, sums); got != want {
		t.Fatalf("merged with empty-stream checksum %04x, want %04x", got, want)
	}
	// A zero-length stripe's sink must accept (and ignore) nothing without
	// panicking.
	m := NewStripeMerger(nil)
	sink := m.StripeSink(plan[2])
	sink(0, nil)
}
