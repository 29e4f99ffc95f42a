package core

import (
	"testing"
	"time"
)

// learning is a config whose estimator learns down to the 1 ms floor.
func learning(tr time.Duration) Config { return Config{RetransTimeout: tr, MinRTO: rtoFloor} }

// The paper's fixed timer is the estimator pinned: with MinRTO at Tr every
// timeout is Tr, whatever the samples and timeouts before it.
func TestRTOPinnedReturnsTr(t *testing.T) {
	const tr = 200 * time.Millisecond
	for _, minRTO := range []time.Duration{tr, 2 * tr} {
		r := newRTO(Config{RetransTimeout: tr, MinRTO: minRTO, PathRTT: time.Millisecond})
		for i, d := range []time.Duration{time.Microsecond, time.Millisecond, tr, 10 * tr, 3 * time.Millisecond} {
			if got := r.cur; got != tr {
				t.Fatalf("MinRTO %v, before sample %d: timeout %v, want Tr %v", minRTO, i, got, tr)
			}
			r.sample(d)
			r.backoff()
			if got := r.cur; got != tr {
				t.Fatalf("MinRTO %v, after a timeout: %v, want Tr %v", minRTO, got, tr)
			}
		}
	}
}

func TestRTOFirstSample(t *testing.T) {
	r := newRTO(learning(200 * time.Millisecond))
	if r.cur != 200*time.Millisecond {
		t.Error("unprimed estimator must use Tr")
	}
	r.sample(4 * time.Millisecond)
	// RFC 6298: srtt = R, rttvar = R/2, RTO = R + 4·R/2 = 3R.
	if got, want := r.cur, 12*time.Millisecond; got != want {
		t.Errorf("first RTO = %v, want %v", got, want)
	}
}

// Tr is the ceiling: no response time, however slow or variable, and no
// run of timeouts lifts the interval above it.
func TestRTONeverExceedsTr(t *testing.T) {
	const tr = 50 * time.Millisecond
	r := newRTO(learning(tr))
	for i := 0; i < 200; i++ {
		r.sample(time.Duration(1+i%7) * 20 * time.Millisecond)
		if got := r.cur; got > tr {
			t.Fatalf("sample %d: timeout %v above Tr %v", i, got, tr)
		}
		if i%3 == 0 {
			r.backoff()
			if got := r.cur; got > tr {
				t.Fatalf("sample %d: backed-off timeout %v above Tr %v", i, got, tr)
			}
		}
	}
}

// Karn's back-off (RFC 6298 §5.5): each timeout doubles the interval up to
// Tr, and the doubled value holds until a clean sample resets it.
func TestRTOBackoffDoublesToCapAndSampleResets(t *testing.T) {
	r := newRTO(learning(100 * time.Millisecond))
	r.sample(4 * time.Millisecond) // 12 ms
	for _, want := range []time.Duration{24, 48, 96, 100, 100} {
		r.backoff()
		if got := r.cur; got != want*time.Millisecond {
			t.Fatalf("backed-off timeout %v, want %v", got, want*time.Millisecond)
		}
	}
	// srtt 4 ms, rttvar (3·2 + 0)/4 = 1.5 ms: 4 + 6 = 10 ms.
	r.sample(4 * time.Millisecond)
	if got, want := r.cur, 10*time.Millisecond; got != want {
		t.Errorf("timeout after a clean sample %v, want %v", got, want)
	}
}

// With no MinRTO a transfer a policy drives floors at rtoFloor, whatever
// Tr is, and the fixed schedule keeps its Tr.
func TestRTODefaultFloor(t *testing.T) {
	for _, tr := range []time.Duration{time.Second, 250 * time.Millisecond, 20 * time.Millisecond} {
		for _, c := range []struct {
			controller string
			want       time.Duration
		}{{"aimd", rtoFloor}, {"", tr}} {
			r := newRTO(Config{RetransTimeout: tr, Controller: c.controller})
			for i := 0; i < 100; i++ {
				r.sample(10 * time.Microsecond)
			}
			if got := r.cur; got != c.want {
				t.Errorf("Tr %v, controller %q: converged timeout %v, want %v", tr, c.controller, got, c.want)
			}
		}
	}
}

func TestRTOConvergesToSteadyResponse(t *testing.T) {
	r := newRTO(learning(time.Second))
	for i := 0; i < 100; i++ {
		r.sample(3 * time.Millisecond)
	}
	// rttvar decays toward 0; RTO approaches srtt ≈ 3 ms from above.
	if got := r.cur; got < 3*time.Millisecond || got > 5*time.Millisecond {
		t.Errorf("converged RTO = %v, want ≈ 3-5 ms", got)
	}
}

func TestRTOReactsToVariance(t *testing.T) {
	r := newRTO(learning(time.Second))
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			r.sample(2 * time.Millisecond)
		} else {
			r.sample(10 * time.Millisecond)
		}
	}
	// With alternating 2/10 ms responses the 4·rttvar term must keep the
	// timeout above the largest observed response.
	if got := r.cur; got < 10*time.Millisecond {
		t.Errorf("RTO %v below max observed response", got)
	}
}

func TestRTOFloorAndGarbage(t *testing.T) {
	r := newRTO(Config{RetransTimeout: time.Second, Controller: "aimd"})
	r.sample(0)  // ignored
	r.sample(-5) // ignored
	if r.srtt != 0 || r.cur != time.Second {
		t.Error("non-positive samples must not prime the estimator")
	}
	for i := 0; i < 200; i++ {
		r.sample(10 * time.Microsecond)
	}
	if got := r.cur; got < rtoFloor {
		t.Errorf("RTO %v below floor %v", got, rtoFloor)
	}
}

func TestRTOMinRTORaisesFloor(t *testing.T) {
	r := newRTO(Config{RetransTimeout: time.Second, MinRTO: 50 * time.Millisecond})
	for i := 0; i < 200; i++ {
		r.sample(time.Millisecond)
	}
	// srtt + 4·rttvar converges to ≈ 1 ms, well under the configured
	// floor: the floor must win, so a host with scheduling noise can pin
	// how aggressive the learned timeout is allowed to get.
	if got := r.cur; got != 50*time.Millisecond {
		t.Errorf("RTO %v, want the 50ms MinRTO floor", got)
	}
}

// A sender given the path's last smoothed RTT starts as if that were its
// first sample: srtt = R, rttvar = R/2, so a learning sender's first timeout
// is 3R, not Tr. Nothing else needs setting.
func TestRTOStartsFromPathRTT(t *testing.T) {
	r := newRTO(Config{RetransTimeout: 200 * time.Millisecond, Controller: "aimd", PathRTT: 4 * time.Millisecond})
	if got, want := r.cur, 12*time.Millisecond; got != want {
		t.Errorf("first RTO = %v, want %v", got, want)
	}
	if got := r.srtt; got != 4*time.Millisecond {
		t.Errorf("smoothed = %v, want the path's 4ms", got)
	}
	r.sample(8 * time.Millisecond) // the sender's own first sample refines it
	if got, want := r.srtt, (7*4*time.Millisecond+8*time.Millisecond)/8; got != want {
		t.Errorf("smoothed after a sample = %v, want %v", got, want)
	}
}
