package core

import (
	"testing"
	"time"
)

// paced builds a clean observation with a measured duration, as a slow path
// would report it.
func paced(n int, perPacket time.Duration) WindowObs {
	return WindowObs{Packets: n, Elapsed: time.Duration(n) * perPacket}
}

// pacedOn is paced as the send side of a paced transfer actually measures
// it: the controller's in-effect gap is slept per packet on top of the
// path's own service time, and Observe nets that sleep back out.
func pacedOn(c *bbrController, n int, perPacket time.Duration) WindowObs {
	return WindowObs{Packets: n, Elapsed: time.Duration(n) * (perPacket + c.Gap())}
}

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
	if c.Gap() != 5*time.Microsecond {
		t.Fatalf("after timeout: gap %v, want one gapStep", c.Gap())
	}
	st := c.Stats()
	if st.Cuts != 1 || st.TimeoutCuts != 1 {
		t.Errorf("stats %+v", st)
	}
}

// Pacing cycles a gain over the estimated delivery interval on genuinely
// slow paths (interval ≥ bbrPaceFloor), probing faster one phase and
// draining slower another, and never actuates on loopback-grade paths
// where a sleep costs more than it spaces.
func TestBBRPacingGainCycle(t *testing.T) {
	c := newBBRController(ControllerConfig{InitWindow: 512, MaxWindow: 512, MaxGap: time.Millisecond})
	const interval = 40 * time.Microsecond
	c.Observe(pacedOn(c, 512, interval)) // leaves startup at MaxWindow
	seen := map[time.Duration]bool{}
	for i := 0; i < bbrCycleLen; i++ {
		c.Observe(pacedOn(c, 512, interval))
		seen[c.Gap()] = true
	}
	if !seen[interval*4/5] {
		t.Errorf("probe-up gap %v never seen (gaps: %v)", interval*4/5, seen)
	}
	if !seen[interval*5/4] {
		t.Errorf("drain gap %v never seen (gaps: %v)", interval*5/4, seen)
	}
	if !seen[interval] {
		t.Errorf("cruise gap %v never seen (gaps: %v)", interval, seen)
	}
	// Loopback-grade interval: no pacing at all.
	fast := newBBRController(ControllerConfig{InitWindow: 512})
	for i := 0; i < 10; i++ {
		fast.Observe(pacedOn(fast, 512, time.Microsecond))
		if fast.Gap() != 0 {
			t.Fatalf("paced a %v-per-packet path with gap %v", time.Microsecond, fast.Gap())
		}
	}
}

// One RTO-dominated window must not poison the delivery model: its Elapsed
// (the estimator's patience, ~1 ms/packet over a big window) is excluded
// from the rate ring, and the in-effect gap is netted out of later samples,
// so pacing releases as soon as clean windows flow again. Before these
// exclusions, a single early timeout on the real UDP path locked the sender
// into a self-confirming ~1 ms/packet stall (gap inflates Elapsed, Elapsed
// confirms the gap) and udp_pull_bbr_loss1 collapsed to ~4 MB/s.
func TestBBRTimeoutDoesNotPoisonDeliveryModel(t *testing.T) {
	c := newBBRController(ControllerConfig{InitWindow: 256})
	c.Observe(clean(256)) // startup exit path irrelevant; seed one sample
	c.Observe(WindowObs{Packets: 256, Timeouts: 1, Elapsed: 250 * time.Millisecond})
	// Clean loopback-grade windows resume: the stale 250 ms must not pace.
	for i := 0; i < bbrRateWindow; i++ {
		c.Observe(pacedOn(c, c.Window(), 2*time.Microsecond))
	}
	if g := c.Gap(); g != 0 {
		t.Fatalf("timeout-tainted model still pacing: gap %v", g)
	}
}
func TestBBRWindowTrajectoryTimingFree(t *testing.T) {
	a := newBBRController(ControllerConfig{})
	b := newBBRController(ControllerConfig{})
	obs := []WindowObs{clean(32), nakked(64), clean(64), timeout(80), clean(40), nakked(56), nakked(56), nakked(56), clean(49)}
	for i, o := range obs {
		oa, ob := o, o
		oa.Elapsed = time.Duration(i+1) * 3 * time.Millisecond
		ob.Elapsed = time.Duration(i+1) * 17 * time.Microsecond
		a.Observe(oa)
		b.Observe(ob)
		if a.Window() != b.Window() {
			t.Fatalf("window trajectory diverged on timing at observation %d: %d vs %d",
				i, a.Window(), b.Window())
		}
	}
}

func TestBBRDeterministic(t *testing.T) {
	obs := []WindowObs{clean(32), clean(64), nakked(128), paced(128, 20*time.Microsecond),
		timeout(72), clean(18), nakked(26), nakked(26), nakked(26), clean(20)}
	a := newBBRController(ControllerConfig{})
	b := newBBRController(ControllerConfig{})
	for i, o := range obs {
		a.Observe(o)
		b.Observe(o)
		if a.Window() != b.Window() || a.Gap() != b.Gap() {
			t.Fatalf("diverged at observation %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
