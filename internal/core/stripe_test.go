package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"blastlan/internal/wire"
)

// The plan must tile the transfer exactly: contiguous, chunk-aligned
// offsets, all bytes covered, chunks spread within one of each other.
func TestPlanStripesTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		bytes := 1 + rng.Intn(1<<20)
		chunk := 1 + rng.Intn(2000)
		streams := 1 + rng.Intn(12)
		plan := PlanStripes(bytes, chunk, streams)
		if len(plan) == 0 {
			t.Fatalf("empty plan for bytes=%d chunk=%d streams=%d", bytes, chunk, streams)
		}
		nChunks := (bytes + chunk - 1) / chunk
		wantStripes := streams
		if wantStripes > nChunks {
			wantStripes = nChunks
		}
		if len(plan) != wantStripes {
			t.Fatalf("bytes=%d chunk=%d streams=%d: %d stripes, want %d",
				bytes, chunk, streams, len(plan), wantStripes)
		}
		off := 0
		minChunks, maxChunks := nChunks, 0
		for i, s := range plan {
			if s.Index != i {
				t.Fatalf("stripe %d has Index %d", i, s.Index)
			}
			if s.Offset != off {
				t.Fatalf("stripe %d offset %d, want %d (contiguous)", i, s.Offset, off)
			}
			if s.Offset%chunk != 0 {
				t.Fatalf("stripe %d offset %d not aligned to chunk %d", i, s.Offset, chunk)
			}
			if s.Bytes <= 0 {
				t.Fatalf("stripe %d has %d bytes", i, s.Bytes)
			}
			c := stripeChunks(s, chunk)
			if c < minChunks {
				minChunks = c
			}
			if c > maxChunks {
				maxChunks = c
			}
			off += s.Bytes
		}
		if off != bytes {
			t.Fatalf("plan covers %d of %d bytes", off, bytes)
		}
		if maxChunks > 0 && maxChunks-minChunks > 1 {
			t.Fatalf("uneven plan: stripe chunk counts span [%d, %d]", minChunks, maxChunks)
		}
	}
}

func TestPlanStripesDegenerate(t *testing.T) {
	if p := PlanStripes(0, 1000, 4); p != nil {
		t.Errorf("zero bytes: %v", p)
	}
	if p := PlanStripes(100, 0, 4); p != nil {
		t.Errorf("zero chunk: %v", p)
	}
	if p := PlanStripes(100, 1000, 0); len(p) != 1 || p[0].Bytes != 100 {
		t.Errorf("streams=0 should fall back to one stripe: %v", p)
	}
	// Fewer chunks than streams: one stripe per chunk.
	p := PlanStripes(2500, 1000, 8)
	if len(p) != 3 {
		t.Fatalf("2500B/1000B across 8 streams: %d stripes, want 3", len(p))
	}
	if p[2].Bytes != 500 {
		t.Errorf("final stripe %d bytes, want the 500B remainder", p[2].Bytes)
	}
}

func TestStripeConfig(t *testing.T) {
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(payload)
	base := Config{TransferID: 10, Bytes: 5000, ChunkSize: 1000, Payload: payload}
	plan := PlanStripes(5000, 1000, 2)
	c0 := StripeConfig(base, plan[0])
	c1 := StripeConfig(base, plan[1])
	if c0.TransferID != 10 || c1.TransferID != 11 {
		t.Errorf("transfer ids %d, %d", c0.TransferID, c1.TransferID)
	}
	if c0.Bytes+c1.Bytes != 5000 {
		t.Errorf("stripe bytes %d + %d", c0.Bytes, c1.Bytes)
	}
	if c1.StripeOffset != c0.Bytes || c1.StripeTotal != 5000 {
		t.Errorf("stripe coords: offset %d total %d", c1.StripeOffset, c1.StripeTotal)
	}
	if !bytes.Equal(append(append([]byte(nil), c0.Payload...), c1.Payload...), payload) {
		t.Error("stripe payloads do not reassemble the original")
	}
	// Stripe configs must pass validation.
	if _, err := c1.withDefaults(); err != nil {
		t.Errorf("stripe config invalid: %v", err)
	}
}

func TestStripeConfigSourceView(t *testing.T) {
	const total, chunk = 5000, 1000
	src := SeededSource(7, total, chunk)
	base := Config{TransferID: 1, Bytes: total, ChunkSize: chunk, Source: src}
	plan := PlanStripes(total, chunk, 2)
	whole := SeededPayload(7, total, chunk)
	var got []byte
	for _, s := range plan {
		sc := StripeConfig(base, s)
		for seq := 0; seq < sc.NumPackets(); seq++ {
			got = append(got, sc.Source(seq, nil)...)
		}
	}
	if !bytes.Equal(got, whole) {
		t.Error("offset sources do not reproduce the logical stream")
	}
}

func TestStripeValidation(t *testing.T) {
	bad := []Config{
		{Bytes: 1000, ChunkSize: 100, StripeOffset: -100, StripeTotal: 2000},
		{Bytes: 1000, ChunkSize: 100, StripeOffset: 55, StripeTotal: 2000},  // misaligned
		{Bytes: 1000, ChunkSize: 100, StripeOffset: 500, StripeTotal: 1200}, // total too small
	}
	for i, c := range bad {
		if _, err := c.withDefaults(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadConfig", i, c, err)
		}
	}
	ok := Config{Bytes: 1000, ChunkSize: 100, StripeOffset: 500, StripeTotal: 1500}
	if _, err := ok.withDefaults(); err != nil {
		t.Errorf("valid stripe rejected: %v", err)
	}
}

// Concurrent stripes delivering out-of-order chunks through the merger must
// reassemble the payload through the global sink, and the per-stripe
// incremental checksums (stripe-local coordinates, exactly what each
// stripe's RecvResult.Checksum reports) must merge into the whole-transfer
// checksum.
func TestStripeMergerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		total := 1 + rng.Intn(200_000)
		chunk := 16 + rng.Intn(1500)
		streams := 1 + rng.Intn(6)
		payload := make([]byte, total)
		rng.Read(payload)
		want := TransferChecksum(payload)

		out := make([]byte, total)
		m := NewStripeMerger(func(off int, b []byte) { copy(out[off:], b) })
		plan := PlanStripes(total, chunk, streams)
		sinks := make([]ChunkSink, len(plan))
		for i, s := range plan {
			sinks[i] = m.StripeSink(s)
		}
		sums := make([]uint16, len(plan))
		var wg sync.WaitGroup
		for i, s := range plan {
			wg.Add(1)
			go func(i int, sink ChunkSink, s Stripe, seed int64) {
				defer wg.Done()
				// Deliver the stripe's chunks in a shuffled order, as a
				// blast receiver would, accumulating the stripe-local
				// incremental checksum exactly like the engine does.
				var acc wire.SumAcc
				r := rand.New(rand.NewSource(seed))
				order := r.Perm(stripeChunks(s, chunk))
				for _, seq := range order {
					lo := seq * chunk
					hi := lo + chunk
					if hi > s.Bytes {
						hi = s.Bytes
					}
					acc.AddAt(lo, payload[s.Offset+lo:s.Offset+hi])
					sink(lo, payload[s.Offset+lo:s.Offset+hi])
				}
				sums[i] = acc.Sum16()
			}(i, sinks[i], s, int64(trial*10+i))
		}
		wg.Wait()
		if gotSum := MergeStripeChecksums(plan, sums); gotSum != want {
			t.Fatalf("trial %d: merged checksum %04x, want %04x", trial, gotSum, want)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("trial %d: global sink did not reassemble the payload", trial)
		}
	}
}

// stripeChunks returns the number of data packets stripe s needs.
func stripeChunks(s Stripe, chunk int) int { return (s.Bytes + chunk - 1) / chunk }
