package core

import (
	"fmt"
	"sync"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// Striping: one logical transfer split into contiguous chunk-aligned byte
// ranges, each moved by an independent protocol session, reassembled by
// offset on the receiving side. The planner and merger are substrate-free;
// the session fan-out (sockets, goroutines) lives with the substrate (see
// udplan.PullStriped). Striping is how a single large transfer exploits a
// concurrent server: per-stripe ack waits overlap, so the link never idles
// through a response round trip.

// Stripe is one contiguous byte range of a striped transfer. Offset is
// always a multiple of the transfer's chunk size, so stripe-local packet
// sequence numbers map to logical-stream chunks by pure addition.
type Stripe struct {
	Index  int
	Offset int // byte offset within the logical stream
	Bytes  int // stripe length in bytes
}

// PlanStripes splits a bytes-long transfer chunked at chunk bytes into at
// most streams contiguous stripes. Every stripe boundary is chunk-aligned;
// chunks are spread as evenly as possible (earlier stripes take the
// remainder); only the final stripe's final chunk may be short. Transfers
// with fewer chunks than streams get one stripe per chunk. streams <= 1, or
// a degenerate size, yields a single stripe covering the whole transfer.
func PlanStripes(bytes, chunk, streams int) []Stripe {
	if bytes <= 0 || chunk <= 0 {
		return nil
	}
	n := (bytes + chunk - 1) / chunk
	k := streams
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	per, rem := n/k, n%k
	out := make([]Stripe, 0, k)
	off := 0
	for i := 0; i < k; i++ {
		chunks := per
		if i < rem {
			chunks++
		}
		size := chunks * chunk
		if off+size > bytes {
			size = bytes - off
		}
		out = append(out, Stripe{Index: i, Offset: off, Bytes: size})
		off += size
	}
	return out
}

// StripeConfig narrows a logical transfer's configuration to one stripe:
// Bytes becomes the stripe's length, the TransferID is offset by the stripe
// index (stripes are concurrent sessions and must demultiplex), and the
// stripe's coordinates within the logical stream are recorded so the REQ
// can carry them to the serving side. Payload and Source views are narrowed
// to the stripe's range; the caller attaches its own Sink (see
// StripeMerger).
func StripeConfig(cfg Config, s Stripe) Config {
	c := cfg
	c.Bytes = s.Bytes
	c.TransferID = cfg.TransferID + uint32(s.Index)
	c.StripeOffset = s.Offset
	c.StripeTotal = cfg.Bytes
	c.Sink = nil
	if cfg.Payload != nil {
		c.Payload = cfg.Payload[s.Offset : s.Offset+s.Bytes]
	}
	if cfg.Source != nil {
		chunk := cfg.ChunkSize
		if chunk == 0 {
			chunk = params.DataPacketSize
		}
		c.Source = OffsetSource(cfg.Source, s.Offset/chunk)
	}
	return c
}

// OffsetSource views a logical-stream chunk source through a stripe
// starting offsetChunks chunks in: the stripe's packet seq maps to logical
// chunk offsetChunks+seq. The stream source's own end-of-stream clipping
// shortens the final chunk exactly where the stripe plan expects it.
func OffsetSource(src ChunkSource, offsetChunks int) ChunkSource {
	return func(seq int, dst []byte) []byte { return src(offsetChunks+seq, dst) }
}

// StripeMerger routes per-stripe deliveries into one logical-stream view:
// each stripe's sink translates its local offsets to stream offsets and
// serialises calls into the optional global sink. It deliberately does NOT
// re-checksum chunks — every stripe's engine already accumulates its own
// incremental checksum (RecvResult.Checksum), and MergeStripeChecksums
// combines those for free, so the per-chunk hot path stays as cheap as an
// unstriped transfer's.
type StripeMerger struct {
	mu   sync.Mutex
	sink ChunkSink
}

// NewStripeMerger builds a merger; sink, when non-nil, receives every
// distinct chunk at its logical-stream offset (serialised by a lock —
// stripes deliver concurrently).
func NewStripeMerger(sink ChunkSink) *StripeMerger {
	return &StripeMerger{sink: sink}
}

// StripeSink returns the ChunkSink one stripe's receiver should deliver
// into — always non-nil, so the stripe's engine stays in streaming mode
// (no transfer-sized Data buffer) even when no global sink is installed.
func (m *StripeMerger) StripeSink(s Stripe) ChunkSink {
	if m.sink == nil {
		return func(int, []byte) {}
	}
	base := s.Offset
	return func(off int, b []byte) {
		m.mu.Lock()
		m.sink(base+off, b)
		m.mu.Unlock()
	}
}

// MergeStripeChecksums folds per-stripe transfer checksums — each computed
// by its stripe's engine in stripe-local coordinates (RecvResult.Checksum)
// — into the whole-stream Internet checksum, equal to TransferChecksum over
// the reassembled bytes. sums[i] belongs to stripes[i].
func MergeStripeChecksums(stripes []Stripe, sums []uint16) uint16 {
	var acc wire.SumAcc
	for i, s := range stripes {
		acc.AddChecksumAt(s.Offset, sums[i])
	}
	return acc.Sum16()
}

// validateStripe checks the stripe coordinates of a config (called from
// withDefaults once sizes are resolved).
func (c *Config) validateStripe() error {
	if c.StripeOffset == 0 && c.StripeTotal == 0 {
		return nil
	}
	switch {
	case c.StripeOffset < 0:
		return fmt.Errorf("%w: StripeOffset must be non-negative, got %d", ErrBadConfig, c.StripeOffset)
	case c.StripeOffset%c.ChunkSize != 0:
		return fmt.Errorf("%w: StripeOffset %d is not chunk-aligned (chunk %d)", ErrBadConfig, c.StripeOffset, c.ChunkSize)
	case c.StripeTotal < c.StripeOffset+c.Bytes:
		return fmt.Errorf("%w: StripeTotal %d < StripeOffset %d + Bytes %d", ErrBadConfig, c.StripeTotal, c.StripeOffset, c.Bytes)
	}
	return nil
}
