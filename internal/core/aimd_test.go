package core

import "testing"

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
}

func TestControllerTimeoutQuartersAndPaces(t *testing.T) {
	c := NewController(ControllerConfig{InitWindow: 256})
	c.Observe(timeout(256))
	if c.Window() != 64 {
		t.Fatalf("after timeout: window %d, want 64 (quartered)", c.Window())
	}
	c.Observe(timeout(64))
	if c.Window() != 16 {
		t.Fatalf("second timeout: window %d, want 16", c.Window())
	}
	// Repeated timeouts floor the window.
	for i := 0; i < 10; i++ {
		c.Observe(timeout(c.Window()))
	}
	if c.Window() != minWindow {
		t.Errorf("window floor: %d, want minWindow %d", c.Window(), minWindow)
	}
	st := c.Stats()
	if st.TimeoutCuts != 12 || st.Cuts != 12 {
		t.Errorf("stats %+v", st)
	}
}

// InitWindow is clamped into [minWindow, maxWindow].
func TestControllerInitWindowClamped(t *testing.T) {
	for _, tc := range []struct{ init, want int }{{1, 16}, {4096, 512}} {
		if c := NewController(ControllerConfig{InitWindow: tc.init}); c.Window() != tc.want {
			t.Errorf("InitWindow %d: window %d, want %d", tc.init, c.Window(), tc.want)
		}
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
		if a.Window() != b.Window() {
			t.Fatalf("diverged at observation %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// The controller reacts to what a window's recovery cost: a repair that
// re-sent at most 1/8 of the window with at most one timeout holds it, a
// heavier one cuts (to 3/4 on NAKs alone, to 1/4 when a timeout was part of
// it).
func TestControllerRecoveryCost(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		obs                               []WindowObs
		win                               int
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
			win: 64, cuts: 1, timeoutCuts: 1},
		{name: "gap decays across holds",
			obs: []WindowObs{timeout(256), {Packets: 64, Retransmits: 1, Naks: 1}, {Packets: 64, Retransmits: 1, Timeouts: 1}},
			win: 64, holds: 2, cuts: 1, timeoutCuts: 1},
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
			if c.Window() != tc.win {
				t.Errorf("window %d, want %d", c.Window(), tc.win)
			}
			if st.Growths != tc.growths || st.Holds != tc.holds || st.Cuts != tc.cuts || st.TimeoutCuts != tc.timeoutCuts {
				t.Errorf("stats %+v, want %d growths, %d holds, %d cuts (%d on timeout)", st, tc.growths, tc.holds, tc.cuts, tc.timeoutCuts)
			}
			if st.Windows != len(tc.obs) || st.FinalWindow != tc.win {
				t.Errorf("stats %+v after %d windows", st, len(tc.obs))
			}
		})
	}
}
