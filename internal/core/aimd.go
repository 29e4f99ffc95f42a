package core

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
//     afterwards, up to maxWindow;
//   - a sparse window — one that re-sent at most 1/sparseShare of its
//     packets and timed out at most once — holds its size. Selective
//     retransmission (§3.2.3) prices a stray drop, or a single lost
//     FlagLast or ack, at that packet plus one response round; cutting
//     for it only multiplies the rounds a randomly lossy path pays;
//   - a heavy window that timed out is the expensive signal — the receiver
//     (or the return path) went dark and then NAKed much of the window —
//     so the window quarters;
//   - any other heavy window (a go-back-n tail re-send, a burst of drops)
//     cuts to 3/4: enough to bound the waste per future loss without
//     starving the pipe.
//
// The controller is a pure, substrate-independent function of its
// observation sequence: the same NAK/retransmit/timeout events produce the
// same window trajectory on the simulator, the V kernel and real UDP, which
// is what lets the cross-substrate conformance suite pin adaptive transfers
// too.
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
	// minWindow floors every policy's decrease: below it the per-window
	// response round trip dominates and throughput collapses from the other
	// side.
	minWindow = 16
	// maxWindow caps every policy's growth.
	maxWindow = 512
)

// ControllerConfig parameterises every built-in policy (aimd,
// autotune). The zero value takes the defaults documented per field.
type ControllerConfig struct {
	// InitWindow is the first window size in packets (default 32), clamped
	// into [minWindow, maxWindow].
	InitWindow int
	// Seed parameterises policies that draw pseudo-random decisions (the
	// autotune hill-climb's perturbation order). Zero selects a fixed
	// default, so an unseeded controller is still deterministic. The blast
	// sender seeds it from the transfer id: both substrates of a
	// conformance pair see the same id, hence the same decision sequence.
	Seed int64
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.InitWindow <= 0 {
		c.InitWindow = 32
	}
	c.InitWindow = min(max(c.InitWindow, minWindow), maxWindow)
	return c
}

// WindowObs is what the sender observed driving one blast window to
// completion: recovery counters only, which is what keeps controller
// trajectories identical across substrates (see ratecontrol.go).
type WindowObs struct {
	Packets     int // first-transmission packets in the window
	Retransmits int // data packets re-sent recovering it
	Naks        int // negative acknowledgements received
	Timeouts    int // silent Tr expiries
}

// sparse reports whether the window's recovery was cheap enough to hold
// the window rather than cut it.
func (o WindowObs) sparse() bool {
	return o.Retransmits*sparseShare <= o.Packets && o.Timeouts <= 1
}

// ControllerStats summarises one transfer's controller trajectory — the
// per-stripe stats feed surfaced in SendResult.
type ControllerStats struct {
	Policy      string // built-in policy name ("aimd", "autotune")
	Windows     int    // windows driven
	Growths     int    // windows after which the window grew
	Cuts        int    // windows after which the window shrank
	Holds       int    // lossy windows after which the window held its size
	TimeoutCuts int    // of Cuts, those triggered by a silent timeout
	FinalWindow int    // window size after the last observation
}

// Controller is the AIMD state machine — the "aimd" entry of the
// RateController table (ratecontrol.go). It is used from the sender's
// goroutine only, like everything else in a protocol engine.
type Controller struct {
	win       int
	slowStart bool
	stats     ControllerStats
}

// NewController builds a controller in slow-start at cfg.InitWindow.
func NewController(cfg ControllerConfig) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{win: cfg.InitWindow, slowStart: true}
	c.stats.Policy = ControllerAIMD
	c.stats.FinalWindow = c.win
	return c
}

// Window returns the size of the next blast window, in packets.
func (c *Controller) Window() int { return c.win }

// Observe folds in one completed window and adjusts the next window per the
// AIMD rules.
func (c *Controller) Observe(o WindowObs) {
	c.stats.Windows++
	switch {
	case o.Retransmits == 0 && o.Timeouts == 0:
		if c.slowStart {
			c.win *= 2
		} else {
			c.win += windowIncrement
		}
		c.win = min(c.win, maxWindow)
		c.stats.Growths++
	case o.sparse():
		c.stats.Holds++
	default:
		if o.Timeouts > 0 {
			c.win /= 4
			c.stats.TimeoutCuts++
		} else {
			c.win = c.win * 3 / 4
		}
		c.win = max(c.win, minWindow)
		c.slowStart = false
		c.stats.Cuts++
	}
	c.stats.FinalWindow = c.win
}

// Stats returns the trajectory summary so far.
func (c *Controller) Stats() ControllerStats { return c.stats }
