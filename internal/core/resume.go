package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"blastlan/internal/wire"
)

// Resumable pulls: the client-side failure-recovery layer above Request.
// A plain Request already survives packet loss (Tr, NAKs, MaxAttempts), but
// it assumes the serving session stays alive; if the server crashes,
// restarts, or sheds the session, the whole transfer starts over. PullResume
// instead tracks the highest verified contiguous chunk and, when a session
// dies (ErrGiveUp, an idle timeout, a reset conn) or the server answers
// BUSY, re-issues the request as an offset REQ — the same stripe-range
// fields a striped transfer uses (wire.Req.OffsetChunks/Total) — so the
// server resumes the stream at the frontier and no verified byte crosses
// the wire twice. This is the restart-of-interrupted-transfers behaviour
// production bulk movers (GridFTP, Globus) treat as table stakes.
//
// Chunks are verified per arrival (each new chunk's Internet checksum is
// recorded) and the whole-transfer checksum is merged from the per-chunk
// sums via wire.SumAcc.AddChecksumAt — identical to the value a single
// uninterrupted Request would have reported.

// ResumeOptions configures PullResume's recovery behaviour. The zero value
// gives a bounded, jittered exponential backoff suitable for real networks;
// deterministic simulations set Seed. Backoff waits sleep on the env's own
// clock when it has one (a SleepFor method: the simulator's virtual clock),
// wall time otherwise.
type ResumeOptions struct {
	// MaxResumes bounds how many resumed sessions may follow a session
	// failure (default 8). BUSY refusals do not consume this budget.
	MaxResumes int

	// MaxBusyWaits bounds how many BUSY refusals the client honors before
	// giving up (default 64). Overload scenarios with long queues raise it.
	MaxBusyWaits int

	// Backoff is the initial retry delay (default 50ms). It doubles per
	// consecutive failed session, resets when a session makes progress, and
	// is capped at 5s. A BUSY reply's retry-after hint overrides the step
	// when larger.
	Backoff time.Duration

	// Seed drives the backoff jitter (a deterministic rng, so a simulated
	// client's recovery schedule is reproducible).
	Seed int64

	// Cancel, when non-nil, is polled between sessions; returning true
	// abandons recovery and surfaces the last error (the striped repair
	// path cancels a stripe when a sibling fails fatally).
	Cancel func() bool
}

// ResumeStats reports how a resumable pull recovered.
type ResumeStats struct {
	Sessions      int // REQ sessions issued; 1 means no recovery was needed
	BusyWaits     int // BUSY refusals honored
	ResumedChunks int // chunks re-requested by resume REQs (unverified at resume time)
	DupChunks     int // chunk arrivals discarded because already verified
}

const (
	defaultMaxResumes   = 8
	defaultMaxBusyWaits = 64
	defaultBackoff      = 50 * time.Millisecond
	maxBackoff          = 5 * time.Second
)

// backoffStep is the exponential delay after `consecutive` failures, capped
// at maxBackoff.
func backoffStep(base time.Duration, consecutive int) time.Duration {
	d := base
	for i := 0; i < consecutive && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// jittered widens d by 0..50% so a crowd of refused clients does not
// reconverge on the server in lockstep.
func jittered(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// addRecv folds one session's receiver counters into the aggregate.
func addRecv(agg *RecvResult, r RecvResult) {
	agg.DataPackets += r.DataPackets
	agg.Duplicates += r.Duplicates
	agg.AcksSent += r.AcksSent
	agg.NaksSent += r.NaksSent
	agg.LingerEvents += r.LingerEvents
	agg.LingerAcks += r.LingerAcks
	agg.LingerNaks += r.LingerNaks
}

// PullResume performs the pull cfg describes with transfer-level failure
// recovery: sessions that die are resumed from the highest verified
// contiguous chunk with an offset REQ, BUSY refusals are honored with the
// server's retry-after hint, and backoff between sessions is exponential
// with seeded jitter. The returned RecvResult aggregates packet counters
// across every session; Data, Bytes and Checksum describe the reassembled
// transfer exactly as an uninterrupted Request would report them.
//
// cfg may itself be a stripe (StripeOffset/StripeTotal set): resumes then
// re-request the unverified tail of that stripe. With cfg.Sink set, each
// distinct chunk is delivered to it exactly once, at its offset within
// cfg's own byte range, regardless of how many sessions it took.
//
// Every session runs on env. The k-th resume after a failure asks as a new
// transfer, id cfg.TransferID + k<<24, so the server opens a fresh session
// for it beside whatever is left of the dead one, and stragglers of the old
// session are told apart by their id. A re-ask after BUSY keeps its id.
func PullResume(env Env, cfg Config, opts ResumeOptions) (RecvResult, ResumeStats, error) {
	var stats ResumeStats
	if cfg.MaxAttempts == 0 {
		// The resume layer owns the long-haul retry policy: a session that
		// cannot get a packet through in a dozen REQ rounds is declared
		// dead and resumed, instead of a single session grinding through
		// Config's huge standalone MaxAttempts default.
		cfg.MaxAttempts = 12
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return RecvResult{}, stats, err
	}
	chunk := c.ChunkSize
	total := c.NumPackets()
	if total == 0 {
		return RecvResult{}, stats, fmt.Errorf("%w: nothing to pull", ErrBadConfig)
	}

	seen := make([]bool, total)
	sums := make([]uint16, total)
	userSink := c.Sink
	var buf []byte
	if userSink == nil {
		buf = make([]byte, c.Bytes)
	}

	maxResumes := opts.MaxResumes
	if maxResumes == 0 {
		maxResumes = defaultMaxResumes
	}
	maxBusy := opts.MaxBusyWaits
	if maxBusy == 0 {
		maxBusy = defaultMaxBusyWaits
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	rng := rand.New(rand.NewSource(opts.Seed*-7046029254386353131 + -1442695040888963407))

	var agg RecvResult
	start := env.Now()
	frontier, resumes, consecutive := 0, 0, 0
	for {
		base := frontier
		acfg := c
		acfg.TransferID = c.TransferID + uint32(resumes)<<24
		acfg.surfaceBusy = true // this layer owns the busy-wait policy
		acfg.Bytes = c.Bytes - base*chunk
		acfg.StripeOffset = c.StripeOffset + base*chunk
		if acfg.StripeTotal == 0 && acfg.StripeOffset > 0 {
			// A resumed unstriped pull becomes an offset view of its own
			// stream, so the server resolves the range like any stripe.
			acfg.StripeTotal = c.StripeOffset + c.Bytes
		}
		acfg.Sink = func(off int, b []byte) {
			idx := base + off/chunk
			if idx >= total || seen[idx] {
				stats.DupChunks++
				return
			}
			seen[idx] = true
			sums[idx] = wire.Checksum(b)
			gOff := idx * chunk
			if userSink != nil {
				userSink(gOff, b)
			} else {
				copy(buf[gOff:], b)
			}
		}
		stats.Sessions++
		if base > 0 {
			stats.ResumedChunks += total - base
		}
		res, err := Request(env, acfg)
		addRecv(&agg, res)
		if err == nil {
			break
		}
		for frontier < total && seen[frontier] {
			frontier++
		}
		if frontier > base {
			consecutive = 0 // the session made progress; restart the ramp
		}
		if frontier >= total {
			break // every chunk verified; only the session teardown was lost
		}
		agg.Elapsed = env.Now() - start
		if errors.Is(err, ErrBadConfig) {
			// The request's shape was refused; re-sending it cannot help.
			return agg, stats, err
		}
		if opts.Cancel != nil && opts.Cancel() {
			return agg, stats, err
		}
		var busy *BusyError
		if errors.As(err, &busy) {
			stats.BusyWaits++
			if stats.BusyWaits > maxBusy {
				return agg, stats, fmt.Errorf("refused %d times: %w", stats.BusyWaits, err)
			}
			wait := backoffStep(backoff, consecutive)
			if busy.RetryAfter > wait {
				wait = busy.RetryAfter
			}
			sleepOn(env, jittered(rng, wait))
			consecutive++
			continue
		}
		resumes++
		if resumes > maxResumes {
			return agg, stats, fmt.Errorf("resume budget (%d) exhausted after %d sessions: %w",
				maxResumes, stats.Sessions, err)
		}
		sleepOn(env, jittered(rng, backoffStep(backoff, consecutive)))
		consecutive++
	}

	var acc wire.SumAcc
	for i := 0; i < total; i++ {
		acc.AddChecksumAt(i*chunk, sums[i])
	}
	agg.Completed = true
	agg.Bytes = c.Bytes
	agg.Checksum = acc.Sum16()
	agg.Data = buf
	agg.Elapsed = env.Now() - start
	return agg, stats, nil
}
