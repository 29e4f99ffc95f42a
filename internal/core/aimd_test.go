package core

import (
	"testing"
	"time"
)

func clean(n int) WindowObs   { return WindowObs{Packets: n} }
func nakked(n int) WindowObs  { return WindowObs{Packets: n, Retransmits: n / 2, Naks: 1} }
func timeout(n int) WindowObs { return WindowObs{Packets: n, Retransmits: n, Timeouts: 1} }

func TestControllerSlowStart(t *testing.T) {
	c := NewController(ControllerConfig{})
	if c.Window() != 32 {
		t.Fatalf("initial window %d, want default 32", c.Window())
	}
	want := []int{64, 128, 256, 512, 512}
	for i, w := range want {
		c.Observe(clean(c.Window()))
		if c.Window() != w {
			t.Fatalf("after clean window %d: window %d, want %d", i+1, c.Window(), w)
		}
	}
	if st := c.Stats(); st.Windows != 5 || st.Growths != 5 || st.Cuts != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestControllerNakCutsAndAdditiveGrowth(t *testing.T) {
	c := NewController(ControllerConfig{InitWindow: 128})
	c.Observe(nakked(128))
	if c.Window() != 96 {
		t.Fatalf("after NAK loss: window %d, want 96 (cut to 3/4)", c.Window())
	}
	// Slow-start is over: a clean window now grows additively.
	c.Observe(clean(96))
	if c.Window() != 96+16 {
		t.Fatalf("post-loss clean growth: window %d, want 112", c.Window())
	}
	if c.Gap() != 0 {
		t.Errorf("NAK loss should not start pacing, gap %v", c.Gap())
	}
}

func TestControllerTimeoutQuartersAndPaces(t *testing.T) {
	c := NewController(ControllerConfig{InitWindow: 256})
	c.Observe(timeout(256))
	if c.Window() != 64 {
		t.Fatalf("after timeout: window %d, want 64 (quartered)", c.Window())
	}
	if c.Gap() != 5*time.Microsecond {
		t.Fatalf("after timeout: gap %v, want one gapStep", c.Gap())
	}
	c.Observe(timeout(64))
	if c.Gap() != 15*time.Microsecond {
		t.Fatalf("second timeout: gap %v, want 2*5+5 µs", c.Gap())
	}
	// Repeated timeouts floor the window and cap the gap.
	for i := 0; i < 10; i++ {
		c.Observe(timeout(c.Window()))
	}
	if c.Window() != 16 {
		t.Errorf("window floor: %d, want MinWindow 16", c.Window())
	}
	if c.Gap() != 100*time.Microsecond {
		t.Errorf("gap cap: %v, want MaxGap", c.Gap())
	}
	// Clean windows decay the gap back toward line rate.
	for i := 0; i < 20 && c.Gap() > 0; i++ {
		c.Observe(clean(c.Window()))
	}
	if c.Gap() != 0 {
		t.Errorf("gap did not decay to zero: %v", c.Gap())
	}
	st := c.Stats()
	if st.TimeoutCuts != 12 || st.Cuts != 12 {
		t.Errorf("stats %+v", st)
	}
}

// A pre-configured pacing gap is a floor: the controller backs off above
// it under timeouts and decays back down to it — never below — so an
// operator-paced endpoint never runs faster than configured.
func TestControllerGapFloor(t *testing.T) {
	const floor = 50 * time.Microsecond
	c := NewController(ControllerConfig{MinGap: floor})
	if c.Gap() != floor {
		t.Fatalf("initial gap %v, want the %v floor", c.Gap(), floor)
	}
	c.Observe(timeout(32))
	if c.Gap() <= floor {
		t.Fatalf("timeout did not raise the gap above the floor: %v", c.Gap())
	}
	for i := 0; i < 10; i++ {
		c.Observe(clean(c.Window()))
	}
	if c.Gap() != floor {
		t.Errorf("gap decayed to %v, want clamped at the %v floor", c.Gap(), floor)
	}
}

func TestControllerDefaultsClamped(t *testing.T) {
	c := NewController(ControllerConfig{InitWindow: 1, MinWindow: 16, MaxWindow: 8})
	// MinWindow collapses onto MaxWindow, and InitWindow is clamped into
	// the [min, max] range.
	if c.Window() != 8 {
		t.Errorf("window %d, want clamped to 8", c.Window())
	}
}

// The controller must be a pure function of its observation sequence — the
// property the cross-substrate conformance of adaptive transfers rests on.
func TestControllerDeterministic(t *testing.T) {
	obs := []WindowObs{clean(32), clean(64), nakked(128), clean(64),
		timeout(72), clean(18), clean(26), nakked(34)}
	a := NewController(ControllerConfig{})
	b := NewController(ControllerConfig{})
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

// The controller reacts to what a window's recovery cost: a repair that
// re-sent at most 1/8 of the window with at most one timeout holds it, a
// heavier one cuts (to 3/4 on NAKs alone, to 1/4 with pacing backed off
// when a timeout was part of it).
func TestControllerRecoveryCost(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		name                              string
		obs                               []WindowObs
		win                               int
		gap                               time.Duration
		growths, holds, cuts, timeoutCuts int
	}{
		{name: "sparse NAK holds",
			obs: []WindowObs{{Packets: 256, Retransmits: 3, Naks: 1}},
			win: 256, holds: 1},
		{name: "one eighth re-sent still holds",
			obs: []WindowObs{{Packets: 256, Retransmits: 32, Naks: 2}},
			win: 256, holds: 1},
		{name: "heavy NAK cuts to 3/4",
			obs: []WindowObs{{Packets: 256, Retransmits: 33, Naks: 2}},
			win: 192, cuts: 1},
		{name: "lone timeout with a 1-packet repair holds unpaced",
			obs: []WindowObs{{Packets: 256, Retransmits: 1, Timeouts: 1}},
			win: 256, holds: 1},
		{name: "two timeouts quarter and pace",
			obs: []WindowObs{{Packets: 256, Retransmits: 2, Timeouts: 2}},
			win: 64, gap: 5 * us, cuts: 1, timeoutCuts: 1},
		{name: "gap decays across holds",
			obs: []WindowObs{timeout(256), {Packets: 64, Retransmits: 1, Naks: 1}, {Packets: 64, Retransmits: 1, Timeouts: 1}},
			win: 64, gap: 5 * us / 4, holds: 2, cuts: 1, timeoutCuts: 1},
		{name: "go-back-n tail re-send cuts",
			obs: []WindowObs{{Packets: 256, Retransmits: 200, Naks: 1}},
			win: 192, cuts: 1},
		{name: "a hold keeps slow-start",
			obs: []WindowObs{{Packets: 256, Retransmits: 2, Naks: 1}, clean(256)},
			win: 512, growths: 1, holds: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(ControllerConfig{InitWindow: 256})
			for _, o := range tc.obs {
				c.Observe(o)
			}
			st := c.Stats()
			if c.Window() != tc.win || c.Gap() != tc.gap {
				t.Errorf("window %d gap %v, want %d and %v", c.Window(), c.Gap(), tc.win, tc.gap)
			}
			if st.Growths != tc.growths || st.Holds != tc.holds || st.Cuts != tc.cuts || st.TimeoutCuts != tc.timeoutCuts {
				t.Errorf("stats %+v, want %d growths, %d holds, %d cuts (%d on timeout)", st, tc.growths, tc.holds, tc.cuts, tc.timeoutCuts)
			}
			if st.Windows != len(tc.obs) || st.FinalWindow != tc.win || st.FinalGap != tc.gap {
				t.Errorf("stats %+v after %d windows", st, len(tc.obs))
			}
		})
	}
}
