package core

// Probing auto-tuner — the "autotune" policy of the RateController
// table, after Arslan & Kosar's heuristic protocol tuning: instead of a
// fixed control law, the controller searches window sizes online. Time is
// divided into epochs of autotuneEpoch windows; each epoch either measures
// the incumbent window or trials a seeded perturbation of it, and the
// epoch's efficiency score decides accept or revert. Consecutive reverts
// mean the climb sits on a local optimum, so the tuner holds the incumbent
// for a while before probing again — convergence mid-transfer, with enough
// residual probing to track a path whose conditions change.
//
// The score is the epoch's delivery efficiency — first-transmission packets
// over total transmissions — a pure function of
// the recovery counters, which keeps the whole search deterministic and
// substrate-independent (see the contract in ratecontrol.go). On a clean
// path every window scores 1.0, so ties are broken by preference: upward
// trials accept on a tie (more pipelining), downward ones revert. That
// drives the clean-path climb to maxWindow and holds there; under loss the
// go-back-n waste of an oversized window drops its score and the climb
// settles where efficiency peaks.
type autotuneController struct {
	win int
	rng uint64

	// Epoch accumulators. A timeout never reaches an epoch: it trips the
	// safety valve in Observe instead.
	winIdx  int
	packets int
	retrans int

	// Search state.
	trial     bool // a perturbation is live this epoch
	saved     int  // incumbent window to restore on revert
	incumbent float64
	haveScore bool
	reverts   int
	hold      int  // epochs left holding the incumbent
	converged bool // the climb sat on a local optimum last probe cycle

	// Momentum: an accepted perturbation repeats its direction next epoch,
	// so a profitable climb (e.g. window up on a clean path) takes
	// consecutive geometric steps instead of waiting for the direction to
	// be redrawn. Cleared on revert or when the direction pins at a bound.
	// lastUp is the direction of the latest trial, which accepts on a tied
	// score when it is up.
	momentum bool
	lastUp   bool

	stats ControllerStats
}

const (
	// autotuneEpoch is the epoch length in windows: long enough to smooth a
	// single unlucky window, short enough to converge inside one transfer.
	autotuneEpoch = 2
	// autotuneHold is how many epochs a converged tuner holds the incumbent
	// before probing again.
	autotuneHold = 8
	// autotuneReverts is the consecutive-revert count that declares
	// convergence.
	autotuneReverts = 3
	// autotuneMargin is the score improvement a downward trial must show
	// to be accepted.
	autotuneMargin = 0.005
	// autotuneSeed is the default hill-climb seed when ControllerConfig.Seed
	// is zero.
	autotuneSeed = 0x5DEECE66D
)

func newAutotuneController(cfg ControllerConfig) *autotuneController {
	cfg = cfg.withDefaults()
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = autotuneSeed
	}
	c := &autotuneController{win: cfg.InitWindow, rng: seed}
	c.stats.Policy = ControllerAutotune
	c.stats.FinalWindow = c.win
	return c
}

func (c *autotuneController) Window() int { return c.win }

// next is splitmix64: a tiny, allocation-free seeded generator so the
// perturbation order is deterministic for a given seed on every substrate.
func (c *autotuneController) next() uint64 {
	c.rng += 0x9E3779B97F4A7C15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// score is the epoch's delivery efficiency in [0, 1].
func (c *autotuneController) score() float64 {
	if c.packets == 0 {
		return 0
	}
	return float64(c.packets) / float64(c.packets+c.retrans)
}

// perturb returns the incumbent window stepped up or down: geometric steps
// climb in few epochs.
func (c *autotuneController) perturb(up bool) int {
	if up {
		return min(c.saved*3/2+1, maxWindow)
	}
	return max(c.saved*2/3, minWindow)
}

// propose picks a perturbation of the window and applies it for the next
// epoch: the accepted direction again while momentum holds, otherwise a
// seeded draw. Perturbations that would be no-ops (the window already sits
// on its bound) are redrawn a few times; if every draw is pinned the epoch
// just re-measures the incumbent.
func (c *autotuneController) propose() {
	c.saved = c.win
	// A downward trial accepts only on a strict score improvement, and no
	// epoch can score above 1.0: when the incumbent already sits at perfect
	// delivery the trial is provably futile. Skipping it is exact, not
	// heuristic. Loss drops the incumbent below the threshold and reopens
	// the full search space.
	futile := c.haveScore && c.incumbent >= 1-autotuneMargin
	if c.momentum {
		if trial := c.perturb(c.lastUp); trial != c.saved {
			c.win, c.trial = trial, true
			return
		}
		c.momentum = false // direction pinned at its bound
	}
	for try := 0; try < 4; try++ {
		up := c.next()&(1<<32) != 0
		trial := c.perturb(up)
		if trial == c.saved || (futile && !up) {
			continue // pinned at a bound, or provably unacceptable; redraw
		}
		c.win, c.trial, c.lastUp = trial, true, up
		return
	}
	c.trial = false
}

// endEpoch folds the finished epoch's score into the search.
func (c *autotuneController) endEpoch() {
	s := c.score()
	switch {
	case !c.trial:
		// Measured the incumbent: (re-)baseline and start probing unless
		// holding.
		c.incumbent, c.haveScore = s, true
		if c.hold > 0 {
			c.hold--
		} else {
			c.propose()
		}
	case !c.haveScore:
		// Defensive: a trial without a baseline becomes the baseline.
		c.incumbent, c.haveScore = s, true
		c.trial = false
	case s > c.incumbent+autotuneMargin || (c.lastUp && s >= c.incumbent-autotuneMargin):
		// Accept: the trial window becomes the incumbent.
		if c.win > c.saved {
			c.stats.Growths++
		} else if c.win < c.saved {
			c.stats.Cuts++
		}
		c.incumbent = s
		c.reverts = 0
		c.trial = false
		c.momentum = true
		c.converged = false
		c.propose()
	default:
		// Revert to the incumbent. Once the climb has declared convergence,
		// a single failed probe is enough to re-enter the hold — the
		// incumbent stays in place for all but one epoch per probe cycle.
		c.win = c.saved
		c.reverts++
		c.trial = false
		c.momentum = false
		if c.converged || c.reverts >= autotuneReverts {
			c.reverts = 0
			c.hold = autotuneHold
			c.converged = true
		} else {
			c.propose()
		}
	}
	c.winIdx, c.packets, c.retrans = 0, 0, 0
}

func (c *autotuneController) Observe(o WindowObs) {
	c.stats.Windows++
	if o.Timeouts > 0 {
		// Safety valve, outside the hill-climb: darkness halves the window
		// immediately, aborts any live trial, and invalidates the baseline
		// (the path changed under the search).
		c.win = max(c.win/2, minWindow)
		c.trial = false
		c.haveScore = false
		c.momentum = false
		c.converged = false
		c.reverts, c.hold = 0, 0
		c.winIdx, c.packets, c.retrans = 0, 0, 0
		c.stats.Cuts++
		c.stats.TimeoutCuts++
		c.stats.FinalWindow = c.win
		return
	}
	c.packets += o.Packets
	c.retrans += o.Retransmits
	c.winIdx++
	if c.winIdx >= autotuneEpoch {
		c.endEpoch()
	}
	c.stats.FinalWindow = c.win
}

func (c *autotuneController) Stats() ControllerStats { return c.stats }
