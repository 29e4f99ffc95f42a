package core

import "time"

// Retransmission timeout: the one timer of stop-and-wait and blast senders.
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
//	timeout          = clamp(srtt + 4·rttvar, floor, Tr)
//
// with Karn's rule: never sample an exchange that was retransmitted. Each
// timeout doubles the timeout, up to Tr, until the next clean sample (RFC
// 6298 §5.5). Until its first sample the timeout is Tr (§2.1), so Tr is the
// first and the largest timeout a sender waits. Sliding window keeps Tr as
// it is (its cumulative acks do not pair one-to-one with sends).
//
// The floor is Config.MinRTO. At or above Tr it pins every timeout to Tr:
// the paper's fixed timer is this estimator pinned. A zero MinRTO floors a
// transfer that a rate-control policy drives at rtoFloor, and pins the
// fixed schedule at the Tr its operator chose: on a busy host loopback
// responses stall past any floor that keeps a lost control packet cheap,
// and a fixed schedule that learned by default re-sent what was never lost
// (DESIGN.md, "One timer").
//
// A sender given Config.PathRTT — the smoothed RTT an earlier transfer to
// the same host ended with — takes it as that first sample (§2.2), the
// "temporal sharing" of RFC 9040: a host's round trip measured a moment ago
// is a better first guess than a Tr picked for the worst case.
type rto struct {
	srtt   time.Duration // zero until the first sample
	rttvar time.Duration
	cur    time.Duration // the timeout in force: doubled per expiry since the last sample
	ceil   time.Duration // Tr
	floor  time.Duration
}

// rtoFloor is the floor of a policy-driven transfer with no MinRTO: under
// the response latency a timer would retransmit before any reply can come.
const rtoFloor = time.Millisecond

func newRTO(c Config) rto {
	floor := c.MinRTO
	switch {
	case floor > 0:
	case c.Controller != "":
		floor = rtoFloor
	default:
		floor = c.RetransTimeout
	}
	r := rto{cur: c.RetransTimeout, ceil: c.RetransTimeout, floor: floor}
	r.sample(c.PathRTT)
	return r
}

// backoff doubles the timeout after one expired, up to Tr.
func (r *rto) backoff() { r.cur = min(2*r.cur, r.ceil) }

// sample folds one response time into the estimator and resets the timeout
// to the rule's value. Callers enforce Karn's rule.
func (r *rto) sample(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.srtt == 0 {
		r.srtt, r.rttvar = d, d/2
	} else {
		r.rttvar = (3*r.rttvar + (r.srtt - d).Abs()) / 4
		r.srtt = (7*r.srtt + d) / 8
	}
	r.cur = min(max(r.srtt+4*r.rttvar, r.floor), r.ceil)
}
