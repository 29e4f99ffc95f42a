package session

import (
	"fmt"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/transport"
)

// Striped transfers: one logical pull split into contiguous chunk-aligned
// byte ranges (core.PlanStripes), each moved by its own transfer — its own
// transfer id on its own conn, so a sharded Server demultiplexes each
// stripe into its own session — running concurrently. Per-stripe ack round
// trips overlap, which is what lets a single large transfer saturate a link
// the way GridFTP-style parallel streams do. The fan-out itself is
// substrate-free: the same orchestrator runs over UDP sockets
// (udplan.PullStriped) and simulator processes (simrun's test fabric), so striped
// behaviour is testable deterministically.

// StripeOptions configures the substrate-independent part of a striped
// pull; everything wire-specific (batch sizes, MTUs, adversaries) is
// configured on the transport.Fabric that dials the stripes.
type StripeOptions struct {
	// Streams is the number of parallel stripe sessions (default 4).
	Streams int
	// Sink, when non-nil, receives every distinct chunk at its
	// logical-stream offset. Stripes deliver concurrently; calls are
	// serialised. When nil the transfer is checksummed and discarded.
	Sink core.ChunkSink

	// Repair enables per-stripe failure recovery: instead of the first
	// error aborting every sibling, the failed stripe is resumed from its
	// verified frontier with an offset REQ (core.PullResume), a new
	// transfer on the stripe's own conn. Abort-all remains the behaviour
	// for non-retryable failures — a refused or corrupt configuration
	// (core.ErrBadConfig) names a transfer that can never complete, so the
	// siblings stop immediately.
	Repair bool
	// MaxResumes, Backoff and Seed tune the per-stripe resume engine when
	// Repair is set; zero values take core.ResumeOptions defaults. Backoff
	// waits sleep on the stripe client's own clock (a sim client's
	// SleepFor, virtual time).
	MaxResumes int
	Backoff    time.Duration
	Seed       int64
}

// StripeOutcome is one stripe session's result.
type StripeOutcome struct {
	Stripe core.Stripe
	Recv   core.RecvResult
	Resume core.ResumeStats // zero unless StripeOptions.Repair recovered the stripe
	Err    error
}

// StripedResult reports a striped pull: merged whole-transfer progress plus
// the per-stripe feed.
type StripedResult struct {
	Bytes    int           // distinct payload bytes delivered across all stripes
	Checksum uint16        // whole-stream Internet checksum (== core.TransferChecksum)
	Elapsed  time.Duration // fan-out start to last stripe completion
	Stripes  []StripeOutcome
}

// MBps returns the logical transfer's application-level throughput.
func (r StripedResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// clockOf returns the fabric's own clock when it has one (a virtual-time
// fabric measures the fan-out in virtual time), falling back to wall time.
func clockOf(f transport.Fabric) func() time.Duration {
	if c, ok := f.(interface{ Now() time.Duration }); ok {
		return c.Now
	}
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// stripeCancel coordinates partial-failure cancellation across the stripe
// bodies: the first stripe to fail wins the error slot and aborts every
// sibling promptly, so a wedged transfer does not wait out the survivors'
// full retry budgets.
type stripeCancel struct {
	mu      sync.Mutex
	clients []transport.Client
	failed  int // 1 + index of the first failed stripe; 0 = none
	err     error
}

// register records a live stripe client; if a sibling already failed the
// newcomer is told to bail out before doing any work.
func (sc *stripeCancel) register(i int, c transport.Client) (alreadyFailed bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.clients[i] = c
	return sc.failed != 0
}

// fail records stripe i's error (first failure wins) and aborts every other
// registered stripe.
func (sc *stripeCancel) fail(i int, err error) {
	sc.mu.Lock()
	if sc.failed != 0 {
		sc.mu.Unlock()
		return
	}
	sc.failed = 1 + i
	sc.err = err
	aborts := make([]transport.Client, 0, len(sc.clients))
	for j, c := range sc.clients {
		if j != i && c != nil {
			aborts = append(aborts, c)
		}
	}
	sc.mu.Unlock()
	for _, c := range aborts {
		c.Abort()
	}
}

// first returns the first failure, if any.
func (sc *stripeCancel) first() (int, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.failed - 1, sc.err
}

// PullStriped requests the logical transfer cfg describes (Bytes, ChunkSize,
// Protocol, Strategy, Window, Controller, timeouts) through the fabric as
// opts.Streams concurrent stripe sessions and reassembles the result. The
// serving side must resolve each stripe's REQ against the logical stream
// (see wire.Req.Offset); Server does this whenever its Source/Data handler
// honours the request's stripe fields. cfg.Sink and cfg.Payload are ignored
// — delivery goes through opts.Sink.
//
// If one stripe fails, its siblings are aborted promptly (their conns
// unblock and their engines error out) and the returned error names the
// stripe that failed first; the partial StripedResult still reports
// whatever every stripe delivered.
func PullStriped(f transport.Fabric, cfg core.Config, opts StripeOptions) (StripedResult, error) {
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	streams := opts.Streams
	if streams <= 0 {
		streams = 4
	}
	plan := core.PlanStripes(cfg.Bytes, chunk, streams)
	if len(plan) == 0 {
		return StripedResult{}, fmt.Errorf("session: nothing to stripe: %w", core.ErrBadConfig)
	}
	cfg.Payload, cfg.Source = nil, nil // pull side: bytes come off the wire

	merger := core.NewStripeMerger(opts.Sink)
	outs := make([]StripeOutcome, len(plan))
	for i := range outs {
		outs[i].Stripe = plan[i]
	}
	cancel := &stripeCancel{clients: make([]transport.Client, len(plan))}
	now := clockOf(f)
	start := now()
	errs := f.Fan(len(plan), func(i int, c transport.Client) error {
		if cancel.register(i, c) {
			return nil // a sibling already failed; don't start a doomed session
		}
		scfg := core.StripeConfig(cfg, plan[i])
		scfg.Sink = merger.StripeSink(plan[i])
		// Substrates with hard framing limits (an MTU) veto the transfer
		// before any packet moves, turning a silent truncation stall into a
		// clear error.
		if v, ok := c.(interface{ ValidateConfig(core.Config) error }); ok {
			if err := v.ValidateConfig(scfg); err != nil {
				cancel.fail(i, err)
				return err
			}
		}
		var res core.RecvResult
		var err error
		if opts.Repair {
			// A dead session is resumed from the stripe's verified frontier
			// rather than aborting every sibling; a sibling's fatal failure
			// still stops it between sessions.
			res, outs[i].Resume, err = core.PullResume(c, scfg, core.ResumeOptions{
				MaxResumes: opts.MaxResumes,
				Backoff:    opts.Backoff,
				Seed:       opts.Seed + int64(i)*1000003,
				Cancel: func() bool {
					_, err := cancel.first()
					return err != nil
				},
			})
		} else {
			res, err = core.Request(c, scfg)
		}
		outs[i].Recv = res
		if err != nil {
			cancel.fail(i, err)
		}
		return err
	})
	res := StripedResult{Elapsed: now() - start, Stripes: outs}
	sums := make([]uint16, len(plan))
	for i := range outs {
		outs[i].Err = errs[i]
		res.Bytes += outs[i].Recv.Bytes
		sums[i] = outs[i].Recv.Checksum
	}
	res.Checksum = core.MergeStripeChecksums(plan, sums)
	if i, err := cancel.first(); err != nil {
		return res, fmt.Errorf("session: stripe %d of %d: %w", i, len(plan), err)
	}
	// Defensive: a fabric that does not route dial failures through the
	// body (see transport.Fabric) reports them only in errs; surface them
	// with their stripe index anyway.
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("session: stripe %d of %d: %w", i, len(plan), err)
		}
	}
	return res, nil
}
