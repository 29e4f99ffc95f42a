package core

import "testing"

// drive feeds the tuner n windows through a deterministic path model and
// returns the window-size history.
func drive(c *autotuneController, n int, model func(win int) WindowObs) []int {
	hist := make([]int, 0, n)
	for i := 0; i < n; i++ {
		c.Observe(model(c.Window()))
		hist = append(hist, c.Window())
	}
	return hist
}

// On a clean path the hill-climb converges to the preference-ordered
// optimum — maximum window — and then holds it: the tuner's window is
// stable across whole epochs, not still wandering.
func TestAutotuneCleanPathConvergesAndHolds(t *testing.T) {
	c := newAutotuneController(ControllerConfig{})
	hist := drive(c, 200, func(win int) WindowObs { return clean(win) })
	// The second half of the run holds the preference optimum: at least one
	// full hold period of consecutive maxWindow epochs (residual probing may
	// dip off-optimum for a single trial epoch between holds, by design).
	tail := hist[len(hist)/2:]
	run, best, at512 := 0, 0, 0
	for _, w := range tail {
		if w == 512 {
			run++
			at512++
		} else {
			run = 0
		}
		if run > best {
			best = run
		}
	}
	if best < autotuneHold*autotuneEpoch {
		t.Fatalf("no stable hold at maxWindow: longest 512-run %d windows, want >= %d (tail %v)",
			best, autotuneHold*autotuneEpoch, tail[len(tail)-20:])
	}
	if at512 < len(tail)*3/4 {
		t.Errorf("spent only %d/%d of the tail at maxWindow", at512, len(tail))
	}
}

// A path whose go-back-n waste grows with the window pushes the climb back:
// the tuner settles below the lossy knee instead of pinning maxWindow.
func TestAutotuneBacksOffWhereEfficiencyDrops(t *testing.T) {
	const knee = 128
	c := newAutotuneController(ControllerConfig{})
	drive(c, 400, func(win int) WindowObs {
		if win > knee {
			// Beyond the knee half the window is go-back-n waste.
			return WindowObs{Packets: win, Retransmits: win / 2, Naks: 1}
		}
		return clean(win)
	})
	if c.Window() > knee*3/2 {
		t.Errorf("tuner pinned window %d well beyond the efficiency knee %d", c.Window(), knee)
	}
	if c.Window() < 16 {
		t.Errorf("tuner collapsed to %d under bounded loss", c.Window())
	}
}

// A silent timeout bypasses the epoch machinery entirely: the window halves
// on the very next decision.
func TestAutotuneTimeoutSafetyValve(t *testing.T) {
	c := newAutotuneController(ControllerConfig{InitWindow: 256})
	c.Observe(timeout(256))
	if c.Window() != 128 {
		t.Fatalf("after timeout: window %d, want 128", c.Window())
	}
	st := c.Stats()
	if st.Cuts != 1 || st.TimeoutCuts != 1 {
		t.Errorf("stats %+v", st)
	}
}

// Same seed, same observations → identical trajectories (the conformance
// and DES-determinism contract); the perturbation order is a pure function
// of the seed.
func TestAutotuneDeterministic(t *testing.T) {
	model := func(win int) WindowObs {
		if win > 200 {
			return WindowObs{Packets: win, Retransmits: win / 3, Naks: 1}
		}
		return clean(win)
	}
	a := newAutotuneController(ControllerConfig{Seed: 42})
	b := newAutotuneController(ControllerConfig{Seed: 42})
	for i := 0; i < 300; i++ {
		a.Observe(model(a.Window()))
		b.Observe(model(b.Window()))
		if a.Window() != b.Window() {
			t.Fatalf("same-seed trajectories diverged at window %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
