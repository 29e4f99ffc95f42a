package core

import (
	"fmt"

	"blastlan/internal/wire"
)

// sendSlidingWindow implements the paper's sliding-window sender: every
// packet is individually acknowledged but the sender continues to transmit
// without waiting; the window is assumed large enough that it never closes
// (§1, Figure 3.c).
//
// After each transmission the sender polls (without blocking) for
// acknowledgements that have arrived, copying them out of the interface —
// this per-packet ack handling is exactly the Ca-per-cycle overhead that
// makes sliding window slightly slower than blast (§2.1.2). Error recovery
// is go-back-n from the highest cumulative acknowledgement, the classic
// strategy for this protocol class (§4).
func sendSlidingWindow(env Env, c Config) (SendResult, error) {
	var res SendResult
	start := env.Now()
	n := c.NumPackets()
	base := 0 // lowest unacknowledged sequence number (cumulative)
	scratch := new(wire.Packet)
	for round := 0; round < c.MaxAttempts; round++ {
		res.Rounds++
		// Transmission phase: send from the retransmission point to the
		// end, draining at most one arrived ack per cycle.
		for seq := base; seq < n; seq++ {
			if err := env.Send(c.fillData(scratch, seq, n, round, seq == n-1)); err != nil {
				return res, err
			}
			res.DataPackets++
			if round > 0 {
				res.Retransmits++
			}
			base = pollAcks(env, c, &res, base)
		}
		// Collection phase: wait for the window to drain; a silent Tr
		// means the packet at base (or its ack) was lost.
		for base < n {
			advanced, ok := collectAck(env, c, &res, base)
			if !ok {
				break // timeout: go back to base
			}
			base = advanced
		}
		if base >= n {
			res.Elapsed = env.Now() - start
			return res, nil
		}
	}
	return res, fmt.Errorf("sliding-window at seq %d/%d: %w", base, n, ErrGiveUp)
}

// pollAcks drains at most one pending acknowledgement without blocking and
// returns the updated cumulative base.
func pollAcks(env Env, c Config, res *SendResult, base int) int {
	resp, err := env.Recv(0)
	if err != nil {
		return base // nothing waiting
	}
	if resp.Trans == c.TransferID && resp.Type == wire.TypeAck {
		res.AcksReceived++
		if int(resp.Seq) > base {
			return int(resp.Seq)
		}
	}
	return base
}

// collectAck blocks up to Tr for an acknowledgement advancing the window.
// It returns the new base and whether the wait succeeded.
func collectAck(env Env, c Config, res *SendResult, base int) (int, bool) {
	resp, err := awaitReply(env, c.RetransTimeout, func(p *wire.Packet) bool {
		if p.Trans != c.TransferID || p.Type != wire.TypeAck {
			return false
		}
		res.AcksReceived++
		return int(p.Seq) > base // else a duplicate ack: the window did not advance
	})
	if err != nil {
		res.Timeouts++
		return base, false
	}
	return int(resp.Seq), true
}
