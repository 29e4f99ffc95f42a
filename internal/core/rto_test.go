package core

import (
	"testing"
	"time"
)

func TestRTODisabledUsesFixed(t *testing.T) {
	r := newRTO(Config{RetransTimeout: 200 * time.Millisecond})
	if r.timeout() != 200*time.Millisecond {
		t.Errorf("timeout = %v", r.timeout())
	}
	r.sample(time.Millisecond) // ignored when disabled
	if r.timeout() != 200*time.Millisecond {
		t.Errorf("disabled estimator moved: %v", r.timeout())
	}
}

func TestRTOFirstSample(t *testing.T) {
	r := newRTO(Config{RetransTimeout: 200 * time.Millisecond, AdaptiveTr: true})
	if r.timeout() != 200*time.Millisecond {
		t.Error("unprimed estimator must use the seed")
	}
	r.sample(4 * time.Millisecond)
	// RFC 6298: srtt = R, rttvar = R/2, RTO = R + 4·R/2 = 3R.
	if got, want := r.timeout(), 12*time.Millisecond; got != want {
		t.Errorf("first RTO = %v, want %v", got, want)
	}
}

func TestRTOConvergesToSteadyResponse(t *testing.T) {
	r := newRTO(Config{RetransTimeout: time.Second, AdaptiveTr: true})
	for i := 0; i < 100; i++ {
		r.sample(3 * time.Millisecond)
	}
	// rttvar decays toward 0; RTO approaches srtt ≈ 3 ms from above.
	if got := r.timeout(); got < 3*time.Millisecond || got > 5*time.Millisecond {
		t.Errorf("converged RTO = %v, want ≈ 3-5 ms", got)
	}
}

func TestRTOReactsToVariance(t *testing.T) {
	r := newRTO(Config{RetransTimeout: time.Second, AdaptiveTr: true})
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			r.sample(2 * time.Millisecond)
		} else {
			r.sample(10 * time.Millisecond)
		}
	}
	// With alternating 2/10 ms responses the 4·rttvar term must keep the
	// timeout above the largest observed response.
	if got := r.timeout(); got < 10*time.Millisecond {
		t.Errorf("RTO %v below max observed response", got)
	}
}

func TestRTOFloorAndGarbage(t *testing.T) {
	r := newRTO(Config{RetransTimeout: time.Second, AdaptiveTr: true})
	r.sample(0)  // ignored
	r.sample(-5) // ignored
	if r.primed {
		t.Error("non-positive samples must not prime the estimator")
	}
	for i := 0; i < 200; i++ {
		r.sample(10 * time.Microsecond)
	}
	if got := r.timeout(); got < rtoFloor {
		t.Errorf("RTO %v below floor %v", got, rtoFloor)
	}
}

func TestRTOMinRTORaisesFloor(t *testing.T) {
	r := newRTO(Config{RetransTimeout: time.Second, AdaptiveTr: true, MinRTO: 50 * time.Millisecond})
	for i := 0; i < 200; i++ {
		r.sample(time.Millisecond)
	}
	// srtt + 4·rttvar converges to ≈ 1 ms, well under the configured
	// floor: the floor must win, so a host with scheduling noise can pin
	// how aggressive the learned timeout is allowed to get.
	if got := r.timeout(); got != 50*time.Millisecond {
		t.Errorf("RTO %v, want the 50ms MinRTO floor", got)
	}
}

// A sender given the path's last smoothed RTT starts as if that were its
// first sample: srtt = R, rttvar = R/2, so its first timeout is 3R, not the
// fixed Tr. A disabled estimator ignores it.
func TestRTOStartsFromPathRTT(t *testing.T) {
	r := newRTO(Config{RetransTimeout: 200 * time.Millisecond, AdaptiveTr: true, PathRTT: 4 * time.Millisecond})
	if got, want := r.timeout(), 12*time.Millisecond; got != want {
		t.Errorf("first RTO = %v, want %v", got, want)
	}
	if got := r.smoothed(); got != 4*time.Millisecond {
		t.Errorf("smoothed = %v, want the path's 4ms", got)
	}
	r.sample(8 * time.Millisecond) // the sender's own first sample refines it
	if got, want := r.smoothed(), (7*4*time.Millisecond+8*time.Millisecond)/8; got != want {
		t.Errorf("smoothed after a sample = %v, want %v", got, want)
	}
	off := newRTO(Config{RetransTimeout: 200 * time.Millisecond, PathRTT: 4 * time.Millisecond})
	if off.timeout() != 200*time.Millisecond || off.smoothed() != 0 {
		t.Errorf("disabled estimator took the path RTT: timeout %v, smoothed %v", off.timeout(), off.smoothed())
	}
}
