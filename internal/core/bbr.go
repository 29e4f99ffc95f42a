package core

import "time"

// Rate-based BBR-flavoured blast control — the "bbr" policy of the
// RateController table.
//
// A loss-driven controller reads loss as a congestion verdict; one that
// cuts the window on every repair never lets a path with steady ~1% random
// loss (a radio hop, a cheap switch) fill: the window saws between cuts and
// additive recovery while the bottleneck sits idle. AIMD (aimd.go) holds
// through sparse repairs instead, judging loss by its count. BBR's insight
// (Cardwell et al., and the delivery-rate framing Arslan & Kosar's tuner
// shares) is to build an explicit model of the path — maximum delivery
// rate, minimum round time — and pace to the model, treating isolated loss
// as noise:
//
//   - Startup mirrors slow-start: each clean window doubles the next until
//     the first loss or MaxWindow, finding the pipe's order of magnitude in
//     log₂ rounds.
//   - Steady state tolerates NAK-repaired loss: the window holds its size
//     (the strategy repaired the gap in one bounded response round), and
//     only *persistent* loss — lossEpoch consecutive lossy windows, the
//     signature of a standing queue or genuine congestion rather than
//     random drops — drains the window by one eighth.
//   - A silent timeout is still darkness: the window halves and pacing
//     backs off, exactly because no model survives a dead return path.
//   - Pacing cycles a gain over the estimated per-packet delivery interval
//     (probe faster one window in eight, drain slower the next, cruise at
//     the estimate otherwise), so the sender continuously re-probes for
//     freed bandwidth without standing queues.
//
// Determinism: window decisions above read only the recovery counters, so
// the window trajectory is identical across the simulator, the V kernel and
// UDP (the conformance suite pins this). The delivery-interval estimate
// reads WindowObs.Elapsed — substrate time — and feeds *pacing only*; see
// the contract in ratecontrol.go.
type bbrController struct {
	cfg     ControllerConfig
	win     int
	gap     time.Duration
	startup bool
	// cycleIdx walks the pacing-gain cycle; the window additively probes on
	// the probe-up phase.
	cycleIdx int
	// lossRun counts consecutive lossy (but not timed-out) windows.
	lossRun int
	// pacedRun counts consecutive windows actuated above MinGap; every
	// bbrRemeasure-th such window runs unpaced (BBR's PROBE_RTT analogue)
	// so the delivery model re-admits an honest sample instead of coasting
	// forever on the one that started the pacing.
	pacedRun int
	// intervals is a ring of recent per-packet delivery-interval samples
	// (window Elapsed over packets put on the wire, net of the pacing gap
	// the controller itself had in effect); the estimate is the ring
	// minimum, i.e. the maximum observed delivery rate, BBR's btlbw filter
	// in interval form.
	intervals [bbrRateWindow]time.Duration
	nSamples  int
	stats     ControllerStats
}

const (
	// bbrRateWindow is the delivery-rate filter depth, in windows.
	bbrRateWindow = 8
	// bbrCycleLen is the pacing-gain cycle length: one probe-up phase, one
	// drain phase, six cruise phases, mirroring BBR's eight-phase cycle.
	bbrCycleLen = 8
	// bbrLossEpoch is how many consecutive lossy windows signal persistent
	// congestion rather than random drops.
	bbrLossEpoch = 3
	// bbrPaceFloor is the smallest per-packet interval worth actuating: a
	// loopback-grade path delivers packets microseconds apart, where a
	// sleep-based pacer costs far more than it spaces, so the policy paces
	// only genuinely slow paths.
	bbrPaceFloor = 10 * time.Microsecond
	// bbrRemeasure bounds a pacing run: after this many consecutive paced
	// windows, one window runs unpaced to refresh the delivery model.
	bbrRemeasure = 8
)

func newBBRController(cfg ControllerConfig) *bbrController {
	cfg = cfg.withDefaults()
	c := &bbrController{cfg: cfg, win: cfg.InitWindow, gap: cfg.MinGap, startup: true}
	c.stats.Policy = ControllerBBR
	c.stats.FinalWindow = c.win
	c.stats.FinalGap = c.gap
	return c
}

func (c *bbrController) Window() int        { return c.win }
func (c *bbrController) Gap() time.Duration { return c.gap }

// minInterval returns the per-packet delivery-interval estimate: the
// minimum over the sample ring, or zero before any sample exists.
func (c *bbrController) minInterval() time.Duration {
	n := c.nSamples
	if n > bbrRateWindow {
		n = bbrRateWindow
	}
	var best time.Duration
	for i := 0; i < n; i++ {
		if s := c.intervals[i]; best == 0 || s < best {
			best = s
		}
	}
	return best
}

// paceGap derives the pacing gap from the delivery model and the current
// gain phase, clamped to [MinGap, MaxGap]. Paths faster than bbrPaceFloor
// per packet are not paced at all (see the constant).
func (c *bbrController) paceGap() time.Duration {
	base := c.minInterval()
	if base < bbrPaceFloor {
		return c.cfg.MinGap
	}
	g := base
	switch c.cycleIdx {
	case 0: // probe up: send a quarter faster than the estimate
		g = base * 4 / 5
	case 1: // drain: send a quarter slower, emptying any probe queue
		g = base * 5 / 4
	}
	if g > c.cfg.MaxGap {
		g = c.cfg.MaxGap
	}
	if g < c.cfg.MinGap {
		g = c.cfg.MinGap
	}
	if g > c.cfg.MinGap {
		if c.pacedRun++; c.pacedRun >= bbrRemeasure {
			c.pacedRun = 0
			return c.cfg.MinGap // PROBE_RTT analogue: one honest window
		}
	} else {
		c.pacedRun = 0
	}
	return g
}

func (c *bbrController) Observe(o WindowObs) {
	c.stats.Windows++
	// Delivery model update: one sample per clean, unpaced window. The
	// exclusions keep the model honest — each excluded class measures
	// something other than the path's delivery rate, and one bad sample in
	// the ring minimum starts a self-sustaining stall (the inflated gap
	// inflates the next Elapsed, which confirms the gap):
	//
	//   - A timed-out window measures the RTO estimator's patience: one
	//     silent Tr over a 256-packet window reads as ~1 ms/packet.
	//   - A window with recovery traffic (NAKs, retransmissions) measures
	//     response round-trips stacked on the send time; the first window
	//     of a 1%-loss transfer read as ~15 µs/packet on a ~2 µs/packet
	//     loopback path purely from its NAK rounds.
	//   - A window the controller itself paced (c.gap is not updated until
	//     the tail of this call, so it is still the gap this window ran
	//     under) measures the sleep — and a real sleep overshoots a
	//     microsecond-grade gap by the timer's whole granularity, so even
	//     netting the nominal gap out leaves the overshoot re-arming the
	//     model. paceGap's bbrRemeasure cycle guarantees unpaced windows
	//     keep coming, so the model refreshes instead of freezing.
	//
	// MinGap is an operator-configured floor the transfer never runs faster
	// than; it is in effect on every window, so it is netted out rather
	// than excluding everything.
	if o.Timeouts == 0 && o.Naks == 0 && o.Retransmits == 0 &&
		c.gap <= c.cfg.MinGap && o.Elapsed > 0 && o.Packets > 0 {
		sent := time.Duration(o.Packets + o.Retransmits)
		sample := o.Elapsed/sent - c.gap
		if sample < time.Nanosecond {
			sample = time.Nanosecond
		}
		c.intervals[c.nSamples%bbrRateWindow] = sample
		c.nSamples++
	}
	switch {
	case o.Timeouts > 0:
		// Darkness: halve (gentler than AIMD's quartering — the model will
		// re-fill the pipe quickly) and back pacing off.
		c.win /= 2
		if c.win < c.cfg.MinWindow {
			c.win = c.cfg.MinWindow
		}
		c.gap = c.gap*2 + gapStep
		if c.gap > c.cfg.MaxGap {
			c.gap = c.cfg.MaxGap
		}
		c.startup = false
		c.lossRun = 0
		c.stats.Cuts++
		c.stats.TimeoutCuts++
	case o.lossy():
		// NAK-repaired loss: tolerated. Only a run of lossy windows drains.
		c.startup = false
		c.lossRun++
		if c.lossRun >= bbrLossEpoch {
			c.lossRun = 0
			if cut := c.win - c.win/8; cut >= c.cfg.MinWindow {
				c.win = cut
				c.stats.Cuts++
			} else if c.win > c.cfg.MinWindow {
				c.win = c.cfg.MinWindow
				c.stats.Cuts++
			}
		} else {
			c.stats.Holds++
		}
		c.cycleIdx = (c.cycleIdx + 1) % bbrCycleLen
		c.gap = c.paceGap()
	default:
		c.lossRun = 0
		if c.startup {
			c.win *= 2
			if c.win >= c.cfg.MaxWindow {
				c.win = c.cfg.MaxWindow
				c.startup = false
			}
			c.stats.Growths++
		} else {
			c.cycleIdx = (c.cycleIdx + 1) % bbrCycleLen
			if c.cycleIdx == 0 && c.win < c.cfg.MaxWindow {
				// Probe-up phase: additive window probe for freed bandwidth.
				c.win += windowIncrement
				if c.win > c.cfg.MaxWindow {
					c.win = c.cfg.MaxWindow
				}
				c.stats.Growths++
			}
		}
		c.gap = c.paceGap()
	}
	c.stats.FinalWindow = c.win
	c.stats.FinalGap = c.gap
}

func (c *bbrController) Stats() ControllerStats { return c.stats }
