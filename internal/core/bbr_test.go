package core

import "testing"

func TestBBRStartupDoublesLikeSlowStart(t *testing.T) {
	c := newBBRController(ControllerConfig{})
	want := []int{64, 128, 256, 512, 512}
	for i, w := range want {
		c.Observe(clean(c.Window()))
		if c.Window() != w {
			t.Fatalf("after clean window %d: window %d, want %d", i+1, c.Window(), w)
		}
	}
}

// The defining property versus AIMD: isolated NAK-repaired loss — the
// signature of ~1% random drop — does not shrink the window at all, and
// only a run of bbrLossEpoch consecutive lossy windows drains it by an
// eighth.
func TestBBRNoCollapseAtModestLoss(t *testing.T) {
	c := newBBRController(ControllerConfig{InitWindow: 256})
	c.Observe(nakked(256)) // exits startup, tolerated
	if c.Window() != 256 {
		t.Fatalf("single lossy window cut the window to %d", c.Window())
	}
	// Alternating loss/clean (a steady 1%-drop path at large windows) never
	// accumulates a loss run, so the window only ever grows.
	for i := 0; i < 20; i++ {
		c.Observe(nakked(c.Window()))
		c.Observe(clean(c.Window()))
	}
	if c.Window() < 256 {
		t.Errorf("alternating modest loss drained the window to %d", c.Window())
	}
	// Persistent loss is congestion: three consecutive lossy windows drain.
	c2 := newBBRController(ControllerConfig{InitWindow: 256})
	c2.Observe(nakked(256))
	c2.Observe(nakked(256))
	if c2.Window() != 256 {
		t.Fatalf("window moved before the loss epoch completed: %d", c2.Window())
	}
	c2.Observe(nakked(256))
	if c2.Window() != 256-256/8 {
		t.Errorf("after a full loss epoch: window %d, want %d", c2.Window(), 256-256/8)
	}
	if st := c2.Stats(); st.Holds != 2 || st.Cuts != 1 {
		t.Errorf("stats %+v, want the two tolerated windows as holds and the drain as a cut", st)
	}
}

func TestBBRTimeoutHalvesAndPaces(t *testing.T) {
	c := newBBRController(ControllerConfig{InitWindow: 256})
	c.Observe(timeout(256))
	if c.Window() != 128 {
		t.Fatalf("after timeout: window %d, want 128 (halved)", c.Window())
	}
	st := c.Stats()
	if st.Cuts != 1 || st.TimeoutCuts != 1 {
		t.Errorf("stats %+v", st)
	}
}

// Out of startup, a steady window probes additively once per cycle: the
// cycle advances on every window but a timeout, lossy ones included, and
// the clean window that closes it grows the next by windowIncrement.
func TestBBRProbesOncePerCycle(t *testing.T) {
	c := newBBRController(ControllerConfig{InitWindow: 256})
	c.Observe(nakked(256)) // leaves startup; the cycle moves to phase 1
	for i := 2; i < bbrCycleLen; i++ {
		c.Observe(clean(c.Window()))
		if c.Window() != 256 {
			t.Fatalf("phase %d grew the window to %d", i, c.Window())
		}
	}
	c.Observe(clean(256)) // back to phase 0: the probe
	if c.Window() != 256+windowIncrement {
		t.Fatalf("probe phase: window %d, want %d", c.Window(), 256+windowIncrement)
	}
	if st := c.Stats(); st.Growths != 1 || st.Holds != 1 {
		t.Errorf("stats %+v, want one probe growth and the tolerated window as a hold", st)
	}
}

func TestBBRDeterministic(t *testing.T) {
	obs := []WindowObs{clean(32), clean(64), nakked(128), clean(128),
		timeout(72), clean(18), nakked(26), nakked(26), nakked(26), clean(20)}
	a := newBBRController(ControllerConfig{})
	b := newBBRController(ControllerConfig{})
	for i, o := range obs {
		a.Observe(o)
		b.Observe(o)
		if a.Window() != b.Window() {
			t.Fatalf("diverged at observation %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
