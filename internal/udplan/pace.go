package udplan

import "time"

// pacer amortizes pacing sleeps over a quantum of accumulated gap. The
// naive actuation — flush + time.Sleep after every data packet — charges a
// flush syscall plus the scheduler's sleep granularity per packet, which
// for a µs-grade gap overshoots the nominal rate by 10-100×: the operator
// asks for gentle pacing while the substrate crawls. Instead each
// data packet accrues its nominal gap as debt and the sender sleeps only
// once the debt reaches paceQuantum, crediting the *measured* sleep
// against the debt so timer overshoot pays for future packets instead of
// compounding. The wire sees short bursts spaced at the nominal average
// rate — pacing in quanta, the way production rate-based senders actuate.
// Gaps at or above the quantum still sleep on every packet.
type pacer struct {
	debt time.Duration
}

// paceQuantum is the debt threshold that triggers a real sleep: well above
// the sleep granularity of a loaded scheduler, so the overshoot stays a
// small fraction of each quantum.
const paceQuantum = 250 * time.Microsecond

// owe accrues one packet's nominal gap and sleeps if the debt is due.
// flush puts queued frames on the wire first, so the sleep spaces real
// transmissions rather than a buffered burst.
func (pc *pacer) owe(gap time.Duration, flush func() error) error {
	pc.debt += gap
	if pc.debt < paceQuantum {
		return nil
	}
	if err := flush(); err != nil {
		return err
	}
	start := time.Now()
	time.Sleep(pc.debt)
	pc.debt -= time.Since(start)
	if pc.debt < -paceQuantum {
		// Bound the credit: one long preemption must not erase pacing
		// for an arbitrary stretch of future packets.
		pc.debt = -paceQuantum
	}
	return nil
}
