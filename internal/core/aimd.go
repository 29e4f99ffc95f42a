package core

import "time"

// AIMD blast rate control — the "aimd" policy of the RateController
// table (ratecontrol.go).
//
// The paper fixes every transfer parameter — window, retransmission
// interval — at connection setup, which is exactly right for its matched
// pair of otherwise-idle machines and exactly wrong for a shared network
// whose loss and latency the sender cannot know in advance. Heuristic
// protocol tuning for high-throughput transfers (Arslan & Kosar) adjusts
// the winning parameters from observed loss instead; this controller does
// the same for the blast engine with the classic AIMD discipline, judging
// each window by what its recovery cost rather than by whether it needed
// any:
//
//   - a clean window (nothing re-sent, no timeout) grows the next window:
//     doubled while in the initial slow-start, by windowIncrement packets
//     afterwards, up to MaxWindow;
//   - a sparse window — one that re-sent at most 1/sparseShare of its
//     packets and timed out at most once — holds its size. Selective
//     retransmission (§3.2.3) prices a stray drop, or a single lost
//     FlagLast or ack, at that packet plus one response round; cutting
//     for it only multiplies the rounds a randomly lossy path pays. The
//     pacing gap decays as on a clean window;
//   - a heavy window that timed out is the expensive signal — the receiver
//     (or the return path) went dark and then NAKed much of the window —
//     so the window quarters AND the inter-packet pacing gap backs off
//     multiplicatively, spacing future frames out in time as well as in
//     number;
//   - any other heavy window (a go-back-n tail re-send, a burst of drops)
//     cuts to 3/4: enough to bound the waste per future loss without
//     starving the pipe.
//
// The controller is a pure, substrate-independent function of its
// observation sequence: the same NAK/retransmit/timeout events produce the
// same window trajectory on the simulator, the V kernel and real UDP, which
// is what lets the cross-substrate conformance suite pin adaptive transfers
// too. The pacing gap is actuated through the optional Datapath interface
// (the substrate's pacing sleeps); substrates without it simply get the
// window adjustments.
//
// A controlled transfer also subsumes Config.AdaptiveTr: response timing is learned
// online with the Jacobson/Karn estimator (rto.go), seeded by
// RetransTimeout. A fixed 250 ms Tr turns every lost last-packet or ack
// into a quarter-second stall; the estimator converges to the real response
// time and makes those stalls proportionate.

const (
	// windowIncrement is the additive increase per clean window once
	// slow-start has ended.
	windowIncrement = 16
	// sparseShare bounds a sparse window's repair: at most 1/sparseShare of
	// its packets re-sent (with at most one timeout) holds the window.
	sparseShare = 8
	// gapStep is the pacing increment added on a timeout window.
	gapStep = 5 * time.Microsecond
)

// ControllerConfig parameterises every built-in policy (aimd, bbr,
// autotune): the window and gap bounds they search within, and the seed of
// those that draw. The zero value takes the defaults documented per field.
type ControllerConfig struct {
	// InitWindow is the first window size in packets (default 32).
	InitWindow int
	// MinWindow floors multiplicative decrease (default 16: below that the
	// per-window response round trip dominates and throughput collapses
	// from the other side).
	MinWindow int
	// MaxWindow caps growth (default 512).
	MaxWindow int
	// MaxGap caps the inter-packet pacing gap (default 100µs).
	MaxGap time.Duration
	// MinGap floors the pacing gap (default 0: clean paths run at line
	// rate). The adaptive sender seeds it with the substrate's
	// pre-configured gap, so a deliberately paced endpoint never runs
	// faster than its operator configured.
	MinGap time.Duration
	// Seed parameterises policies that draw pseudo-random decisions (the
	// autotune hill-climb's perturbation order). Zero selects a fixed
	// default, so an unseeded controller is still deterministic. The
	// controlled sender seeds it from the transfer id: both substrates of a
	// conformance pair see the same id, hence the same decision sequence.
	Seed int64
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.InitWindow <= 0 {
		c.InitWindow = 32
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 16
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 512
	}
	if c.MaxGap <= 0 {
		c.MaxGap = 100 * time.Microsecond
	}
	if c.MinWindow > c.MaxWindow {
		c.MinWindow = c.MaxWindow
	}
	if c.InitWindow < c.MinWindow {
		c.InitWindow = c.MinWindow
	}
	if c.InitWindow > c.MaxWindow {
		c.InitWindow = c.MaxWindow
	}
	if c.MinGap < 0 {
		c.MinGap = 0
	}
	if c.MaxGap < c.MinGap {
		c.MaxGap = c.MinGap
	}
	return c
}

// WindowObs is what the sender observed driving one blast window to
// completion. Window decision rules read only the recovery counters — that
// is what keeps controller trajectories identical across substrates (see ratecontrol.go). Elapsed is the substrate clock's measure
// of the window (virtual time on the simulator, wall time on UDP): policies
// may use it for pacing only, and it is zero on substrates or paths that do
// not measure it.
type WindowObs struct {
	Packets     int           // first-transmission packets in the window
	Retransmits int           // data packets re-sent recovering it
	Naks        int           // negative acknowledgements received
	Timeouts    int           // silent Tr expiries
	Elapsed     time.Duration // time driving the window, response round included
}

// lossy reports whether the window needed any recovery at all.
func (o WindowObs) lossy() bool {
	return o.Retransmits > 0 || o.Naks > 0 || o.Timeouts > 0
}

// sparse reports whether the window's recovery was cheap enough to hold
// the window rather than cut it.
func (o WindowObs) sparse() bool {
	return o.Retransmits*sparseShare <= o.Packets && o.Timeouts <= 1
}

// ControllerStats summarises one transfer's controller trajectory — the
// per-stripe stats feed surfaced in SendResult.
type ControllerStats struct {
	Policy      string        // built-in policy name ("aimd", "bbr", ...)
	Windows     int           // windows driven
	Growths     int           // windows after which the window grew
	Cuts        int           // windows after which the window shrank
	Holds       int           // lossy windows after which the window held its size
	TimeoutCuts int           // of Cuts, those triggered by a silent timeout
	FinalWindow int           // window size after the last observation
	FinalGap    time.Duration // pacing gap after the last observation
}

// Controller is the AIMD state machine — the "aimd" entry of the
// RateController table (ratecontrol.go). It is used from the sender's
// goroutine only, like everything else in a protocol engine.
type Controller struct {
	cfg       ControllerConfig
	win       int
	gap       time.Duration
	slowStart bool
	stats     ControllerStats
}

// NewController builds a controller in slow-start at cfg.InitWindow,
// pacing at cfg.MinGap.
func NewController(cfg ControllerConfig) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, win: cfg.InitWindow, gap: cfg.MinGap, slowStart: true}
	c.stats.Policy = ControllerAIMD
	c.stats.FinalWindow = c.win
	c.stats.FinalGap = c.gap
	return c
}

// Window returns the size of the next blast window, in packets.
func (c *Controller) Window() int { return c.win }

// Gap returns the current inter-packet pacing gap (zero on a clean path).
func (c *Controller) Gap() time.Duration { return c.gap }

// Observe folds in one completed window and adjusts the next window and the
// pacing gap per the AIMD rules.
func (c *Controller) Observe(o WindowObs) {
	c.stats.Windows++
	switch {
	case o.Retransmits == 0 && o.Timeouts == 0:
		if c.slowStart {
			c.win *= 2
		} else {
			c.win += windowIncrement
		}
		if c.win > c.cfg.MaxWindow {
			c.win = c.cfg.MaxWindow
		}
		c.decayGap()
		c.stats.Growths++
	case o.sparse():
		c.decayGap()
		c.stats.Holds++
	default:
		if o.Timeouts > 0 {
			c.win /= 4
			c.gap = c.gap*2 + gapStep
			if c.gap > c.cfg.MaxGap {
				c.gap = c.cfg.MaxGap
			}
			c.stats.TimeoutCuts++
		} else {
			c.win = c.win * 3 / 4
		}
		if c.win < c.cfg.MinWindow {
			c.win = c.cfg.MinWindow
		}
		c.slowStart = false
		c.stats.Cuts++
	}
	c.stats.FinalWindow = c.win
	c.stats.FinalGap = c.gap
}

// decayGap halves the pacing gap back toward the configured floor (line
// rate when none was set).
func (c *Controller) decayGap() {
	c.gap /= 2
	if c.gap < c.cfg.MinGap {
		c.gap = c.cfg.MinGap
	}
}

// Stats returns the trajectory summary so far.
func (c *Controller) Stats() ControllerStats { return c.stats }
