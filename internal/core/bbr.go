package core

// Loss-tolerant, probing BBR-flavoured blast control — the "bbr" policy of
// the RateController table.
//
// A loss-driven controller reads loss as a congestion verdict; one that
// cuts the window on every repair never lets a path with steady ~1% random
// loss (a radio hop, a cheap switch) fill: the window saws between cuts and
// additive recovery while the bottleneck sits idle. AIMD (aimd.go) holds
// through sparse repairs instead, judging loss by its count. This policy
// borrows BBR's stance (Cardwell et al.) without its rate model: isolated
// loss is noise, only persistent loss is congestion, and a steady sender
// keeps probing for freed capacity:
//
//   - Startup mirrors slow-start: each clean window doubles the next until
//     the first loss or maxWindow, finding the pipe's order of magnitude in
//     log₂ rounds.
//   - Steady state tolerates NAK-repaired loss: the window holds its size
//     (the strategy repaired the gap in one bounded response round), and
//     only *persistent* loss — bbrLossEpoch consecutive lossy windows, the
//     signature of a standing queue or genuine congestion rather than
//     random drops — drains the window by one eighth.
//   - A silent timeout is still darkness: the window halves.
//   - An eight-window cycle times the probe: on its first phase a clean
//     window grows the next by windowIncrement packets.
type bbrController struct {
	win     int
	startup bool
	// cycleIdx walks the eight-window cycle; the window additively probes
	// when a clean window brings it back to phase zero.
	cycleIdx int
	// lossRun counts consecutive lossy (but not timed-out) windows.
	lossRun int
	stats   ControllerStats
}

const (
	// bbrCycleLen is the probe cycle length in windows, mirroring BBR's
	// eight-phase gain cycle.
	bbrCycleLen = 8
	// bbrLossEpoch is how many consecutive lossy windows signal persistent
	// congestion rather than random drops.
	bbrLossEpoch = 3
)

func newBBRController(cfg ControllerConfig) *bbrController {
	cfg = cfg.withDefaults()
	c := &bbrController{win: cfg.InitWindow, startup: true}
	c.stats.Policy = ControllerBBR
	c.stats.FinalWindow = c.win
	return c
}

func (c *bbrController) Window() int { return c.win }

func (c *bbrController) Observe(o WindowObs) {
	c.stats.Windows++
	switch {
	case o.Timeouts > 0:
		// Darkness: halve, gentler than AIMD's quartering.
		c.win = max(c.win/2, minWindow)
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
			if cut := c.win - c.win/8; cut >= minWindow {
				c.win = cut
				c.stats.Cuts++
			} else if c.win > minWindow {
				c.win = minWindow
				c.stats.Cuts++
			}
		} else {
			c.stats.Holds++
		}
		c.cycleIdx = (c.cycleIdx + 1) % bbrCycleLen
	default:
		c.lossRun = 0
		if c.startup {
			c.win *= 2
			if c.win >= maxWindow {
				c.win = maxWindow
				c.startup = false
			}
			c.stats.Growths++
		} else {
			c.cycleIdx = (c.cycleIdx + 1) % bbrCycleLen
			if c.cycleIdx == 0 && c.win < maxWindow {
				// Probe phase: additive window probe for freed bandwidth.
				c.win = min(c.win+windowIncrement, maxWindow)
				c.stats.Growths++
			}
		}
	}
	c.stats.FinalWindow = c.win
}

func (c *bbrController) Stats() ControllerStats { return c.stats }
