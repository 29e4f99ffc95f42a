package core

import "time"

// Probing auto-tuner — the "autotune" policy of the RateController
// table, after Arslan & Kosar's heuristic protocol tuning: instead of a
// fixed control law, the controller searches the window × pacing space
// online. Time is divided into epochs of autotuneEpoch windows; each
// epoch either measures the incumbent parameter set or trials a seeded
// perturbation of one dimension, and the epoch's efficiency score decides
// accept or revert. Consecutive reverts mean the climb sits on a local
// optimum, so the tuner holds the incumbent for a while before probing
// again — convergence mid-transfer, with enough residual probing to track a
// path whose conditions change.
//
// The score is the epoch's delivery efficiency — first-transmission packets
// over total transmissions (timeouts weighted heavily) — a pure function of
// the recovery counters, which keeps the whole search deterministic and
// substrate-independent (see the contract in ratecontrol.go). On a clean
// path every parameter set scores 1.0, so ties are broken by preference:
// upward window trials and downward gap trials accept on a tie (more
// pipelining, line rate), their opposites revert. That drives the
// clean-path climb to (MaxWindow, MinGap) and holds there; under loss the
// go-back-n waste of an oversized window drops its score and the climb
// settles where efficiency peaks.
type autotuneController struct {
	cfg ControllerConfig
	win int
	gap time.Duration
	rng uint64

	// Epoch accumulators.
	winIdx   int
	packets  int
	retrans  int
	naks     int
	timeouts int

	// Search state.
	trial     bool   // a perturbation is live this epoch
	tieAccept bool   // live perturbation accepts on a tied score
	trialWin  bool   // live perturbation moved the window (for stats)
	saved     tuning // incumbent to restore on revert
	incumbent float64
	haveScore bool
	reverts   int
	hold      int  // epochs left holding the incumbent
	converged bool // the climb sat on a local optimum last probe cycle

	// Momentum: an accepted perturbation repeats its direction next epoch,
	// so a profitable climb (e.g. window up on a clean path) takes
	// consecutive geometric steps instead of waiting for the dimension to be
	// redrawn. Cleared on revert or when the direction pins at a bound.
	momentum bool
	lastDim  uint64
	lastUp   bool

	stats ControllerStats
}

// tuning is one point in the search space.
type tuning struct {
	win int
	gap time.Duration
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
	// autotuneMargin is the score improvement a non-preferred trial must
	// show to be accepted.
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
	c := &autotuneController{cfg: cfg, win: cfg.InitWindow, gap: cfg.MinGap, rng: seed}
	c.stats.Policy = ControllerAutotune
	c.stats.FinalWindow = c.win
	c.stats.FinalGap = c.gap
	return c
}

func (c *autotuneController) Window() int        { return c.win }
func (c *autotuneController) Gap() time.Duration { return c.gap }

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
	waste := c.retrans + 16*c.timeouts
	return float64(c.packets) / float64(c.packets+waste)
}

// perturb applies one step of dimension dim in direction up to the
// incumbent and reports whether the trial should accept on a tied score
// (the preference ordering: more window, less gap).
func (c *autotuneController) perturb(dim uint64, up bool) (trial tuning, tie bool) {
	trial = c.saved
	switch dim {
	case 0: // window: geometric steps climb in few epochs
		if up {
			trial.win = trial.win*3/2 + 1
			if trial.win > c.cfg.MaxWindow {
				trial.win = c.cfg.MaxWindow
			}
			tie = true
		} else {
			trial.win = trial.win * 2 / 3
			if trial.win < c.cfg.MinWindow {
				trial.win = c.cfg.MinWindow
			}
		}
	default: // pacing gap
		if up {
			trial.gap += gapStep
			if trial.gap > c.cfg.MaxGap {
				trial.gap = c.cfg.MaxGap
			}
		} else {
			trial.gap -= gapStep
			if trial.gap < c.cfg.MinGap {
				trial.gap = c.cfg.MinGap
			}
			tie = true
		}
	}
	return trial, tie
}

// propose picks a perturbation of one dimension and applies it for the next
// epoch: the accepted direction again while momentum holds, otherwise a
// seeded draw. Perturbations that would be no-ops (the dimension already
// sits on its bound) are redrawn a few times; if everything is pinned the
// epoch just re-measures the incumbent.
func (c *autotuneController) propose() {
	c.saved = tuning{win: c.win, gap: c.gap}
	// A non-preferred trial (window down, gap up) accepts only on a strict
	// score improvement, and no epoch can score above 1.0: when the
	// incumbent already sits at perfect delivery the trial is provably
	// futile. Skipping it is exact, not heuristic — and on real substrates
	// it is far from free to run anyway, because actuating any pacing gap
	// forces per-packet flushes for the whole trial epoch (the same
	// actuation cost the bbr delivery model refuses to measure). Loss drops
	// the incumbent below the threshold and reopens the full search space.
	futile := c.haveScore && c.incumbent >= 1-autotuneMargin
	if c.momentum {
		if trial, tie := c.perturb(c.lastDim, c.lastUp); trial != c.saved {
			c.win, c.gap = trial.win, trial.gap
			c.trial, c.tieAccept, c.trialWin = true, tie, c.lastDim == 0
			return
		}
		c.momentum = false // direction pinned at its bound
	}
	for try := 0; try < 4; try++ {
		r := c.next()
		dim, up := r%2, r&(1<<32) != 0 // dim 0: window, 1: gap
		trial, tie := c.perturb(dim, up)
		if trial == c.saved || (futile && !tie) {
			continue // pinned at a bound, or provably unacceptable; redraw
		}
		c.win, c.gap = trial.win, trial.gap
		c.trial, c.tieAccept, c.trialWin = true, tie, dim == 0
		c.lastDim, c.lastUp = dim, up
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
	case s > c.incumbent+autotuneMargin || (c.tieAccept && s >= c.incumbent-autotuneMargin):
		// Accept: the trial point becomes the incumbent.
		if c.trialWin {
			if c.win > c.saved.win {
				c.stats.Growths++
			} else if c.win < c.saved.win {
				c.stats.Cuts++
			}
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
		c.win, c.gap = c.saved.win, c.saved.gap
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
	c.winIdx, c.packets, c.retrans, c.naks, c.timeouts = 0, 0, 0, 0, 0
}

func (c *autotuneController) Observe(o WindowObs) {
	c.stats.Windows++
	if o.Timeouts > 0 {
		// Safety valve, outside the hill-climb: darkness halves the window
		// and backs pacing off immediately, aborts any live trial, and
		// invalidates the baseline (the path changed under the search).
		c.win /= 2
		if c.win < c.cfg.MinWindow {
			c.win = c.cfg.MinWindow
		}
		c.gap = c.gap*2 + gapStep
		if c.gap > c.cfg.MaxGap {
			c.gap = c.cfg.MaxGap
		}
		c.trial = false
		c.haveScore = false
		c.momentum = false
		c.converged = false
		c.reverts, c.hold = 0, 0
		c.winIdx, c.packets, c.retrans, c.naks, c.timeouts = 0, 0, 0, 0, 0
		c.stats.Cuts++
		c.stats.TimeoutCuts++
		c.stats.FinalWindow = c.win
		c.stats.FinalGap = c.gap
		return
	}
	c.packets += o.Packets
	c.retrans += o.Retransmits
	c.naks += o.Naks
	c.timeouts += o.Timeouts
	c.winIdx++
	if c.winIdx >= autotuneEpoch {
		c.endEpoch()
	}
	c.stats.FinalWindow = c.win
	c.stats.FinalGap = c.gap
}

func (c *autotuneController) Stats() ControllerStats { return c.stats }
