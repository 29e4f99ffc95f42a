package core

import "time"

// Adaptive retransmission timeout (Config.AdaptiveTr).
//
// The paper's Figures 5 and 6 show that the elapsed-time variance of the
// simpler retransmission strategies is driven by the retransmission
// interval Tr, and its timeout values are hand-picked multiples of the
// known error-free transfer time. A deployed protocol does not know T0(D)
// a priori; the modern answer (Jacobson 1988, RFC 6298 — three years after
// this paper) estimates the response time online:
//
//	first sample R:  srtt = R, rttvar = R/2
//	thereafter:      rttvar = 3/4·rttvar + 1/4·|srtt − R|
//	                 srtt   = 7/8·srtt   + 1/8·R
//	timeout          = srtt + 4·rttvar   (floored)
//
// with Karn's rule: never sample an exchange that was retransmitted. The
// estimator applies to stop-and-wait (one sample per packet) and to blast
// (one sample per reliable-last response); sliding window keeps its fixed
// Tr (its cumulative acks do not pair one-to-one with sends).
//
// Until its first sample the estimator's timeout is the fixed Tr (RFC 6298
// §2.1). A sender given Config.PathRTT — the smoothed RTT an earlier
// transfer to the same host ended with — takes it as that first sample
// (§2.2: srtt = R, rttvar = R/2, so the first timeout is 3R, floored), the
// "temporal sharing" of RFC 9040: a host's round trip measured a moment ago
// is a better first guess than a Tr picked for the worst case. Its own
// samples then refine it as usual.
type rto struct {
	srtt    time.Duration
	rttvar  time.Duration
	primed  bool
	fixed   time.Duration // Config.RetransTimeout: initial and non-adaptive value
	floor   time.Duration // Config.MinRTO, defaulted to rtoFloor
	enabled bool
}

// rtoFloor bounds the adaptive timeout from below: a timeout under the
// response latency would retransmit before any reply can arrive.
const rtoFloor = time.Millisecond

func newRTO(c Config) rto {
	floor := c.MinRTO
	if floor <= 0 {
		floor = rtoFloor
	}
	r := rto{fixed: c.RetransTimeout, floor: floor, enabled: c.AdaptiveTr}
	r.sample(c.PathRTT)
	return r
}

// smoothed returns the smoothed round-trip time, or zero when the
// estimator is off or has no sample.
func (r *rto) smoothed() time.Duration {
	if !r.enabled || !r.primed {
		return 0
	}
	return r.srtt
}

// timeout returns the current retransmission interval.
func (r *rto) timeout() time.Duration {
	if !r.enabled || !r.primed {
		return r.fixed
	}
	t := r.srtt + 4*r.rttvar
	if t < r.floor {
		t = r.floor
	}
	return t
}

// sample folds one response-time measurement into the estimator. Callers
// enforce Karn's rule (no samples from retransmitted exchanges).
func (r *rto) sample(d time.Duration) {
	if !r.enabled || d <= 0 {
		return
	}
	if !r.primed {
		r.srtt = d
		r.rttvar = d / 2
		r.primed = true
		return
	}
	diff := r.srtt - d
	if diff < 0 {
		diff = -diff
	}
	r.rttvar = (3*r.rttvar + diff) / 4
	r.srtt = (7*r.srtt + d) / 8
}
