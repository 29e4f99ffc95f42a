package core

import (
	"fmt"
	"time"

	"blastlan/internal/wire"
)

// sendBlast implements the paper's blast sender: all data packets are
// transmitted in sequence with a single acknowledgement for the entire
// sequence (Figure 1, Figure 3.b), under one of the four retransmission
// strategies of §3.2. The transfer is broken into multiple blasts (§3.1.3),
// each completed before the next begins. Under pluggable rate control
// (Config.Controller) each window's size comes from the policy and each
// completed window's recovery cost feeds back into it; with no policy every
// window is Config.Window packets, or the whole transfer when that is 0. The
// receiver needs no changes — it judges windows by the high-water FlagLast
// sequence, whatever their sizes.
//
// async selects Figure 3.d semantics: unreliable packets are handed to the
// interface with SendAsync so that a double-buffered interface overlaps the
// copy of packet k+1 with the transmission of packet k.
func sendBlast(env Env, c Config, async bool) (SendResult, error) {
	start := env.Now()
	n := c.NumPackets()
	// A nil policy is a fixed window of w packets.
	var ctrl RateController
	var err error
	w := c.Window
	if w <= 0 || w > n {
		w = n
	}
	if c.Controller != "" {
		// The hill-climbing policy draws its perturbation order from the
		// seed; both substrates of a conformance pair share the transfer id,
		// so they share the search trajectory too.
		if ctrl, err = NewRateController(c.Controller, ControllerConfig{InitWindow: c.Window, Seed: int64(c.TransferID)}); err != nil {
			return SendResult{}, err
		}
	}
	b := newBlastTx(env, c, async)
	res := &b.res
	for base := 0; base < n; {
		if ctrl != nil {
			w = ctrl.Window()
		}
		end := min(base+w, n)
		before := *res
		// The next window is staged at the size the policy picks now; should
		// this window's outcome change it, window releases what still fits
		// and sends or drops the difference.
		if err = b.window(base, end, min(end+w, n)); err != nil {
			break
		}
		if ctrl != nil {
			ctrl.Observe(WindowObs{
				Packets:     end - base,
				Retransmits: res.Retransmits - before.Retransmits,
				Naks:        res.NaksReceived - before.NaksReceived,
				Timeouts:    res.Timeouts - before.Timeouts,
			})
		}
		base = end
	}
	res.Elapsed = env.Now() - start
	res.SRTT = b.est.srtt
	if ctrl != nil {
		st := ctrl.Stats()
		res.Controller = &st
	}
	return *res, err
}

// blastTx is what the windows of one blast transfer share. scratch is the
// transfer's one data packet (every Env consumes a packet before Send
// returns); stage is nil on a substrate that cannot stage.
type blastTx struct {
	env     Env
	c       Config
	res     SendResult
	est     rto
	scratch *wire.Packet
	stage   Stager
	pending []int
	total   int // NumPackets, computed once
	async   bool
}

func newBlastTx(env Env, c Config, async bool) *blastTx {
	b := &blastTx{env: env, c: c, est: newRTO(c), scratch: new(wire.Packet), total: c.NumPackets(), async: async}
	if st, ok := env.(Stager); ok {
		_ = st.ReleaseStaged(0) // sends nothing: only forgets what an abandoned transfer left staged
		b.stage = st
	}
	return b
}

// stageWindow encodes the unreliable packets of the window [from, to) into
// the substrate's stage, as far as it takes them: the sender's one use of
// Stager.Stage, made while the previous window's response is in flight.
func (b *blastTx) stageWindow(from, to int) {
	for seq := from; seq < to-1; seq++ {
		if !b.stage.Stage(b.c.fillData(b.scratch, seq, b.total, 0, false)) {
			return
		}
	}
}

// window drives one blast of packets [base, end) to completion. next is where
// the following window is expected to end (end itself when there is none): it
// is staged once this window's reliable last packet has left, and whatever of
// this window was staged the same way goes out first, counted as sent now.
func (b *blastTx) window(base, end, next int) error {
	env, c, res, total := b.env, b.c, &b.res, b.total
	first := base
	if b.stage != nil {
		k := min(b.stage.Staged(), end-1-base)
		if err := b.stage.ReleaseStaged(k); err != nil {
			return err
		}
		res.DataPackets += k
		first += k
	}
	if cap(b.pending) < end-base {
		b.pending = make([]int, 0, end-base)
	}
	pending := b.pending[:0]
	for seq := first; seq < end; seq++ {
		pending = append(pending, seq)
	}
	attempts := 0
	round := 0
	for attempts < c.MaxAttempts {
		res.Rounds++
		// Blast the pending set: everything before the final packet is sent
		// without acknowledgement; the final packet carries FlagLast to
		// elicit the receiver's (positive or negative) response.
		for _, seq := range pending[:len(pending)-1] {
			if err := sendData(env, c, res, b.scratch, seq, total, round, false, b.async); err != nil {
				return err
			}
		}
		// Batched substrates may still hold queued frames; put the window on
		// the wire before the reliable last packet, so the response timer it
		// starts measures a fully transmitted blast.
		if err := FlushBatch(env); err != nil {
			return err
		}
		last := pending[len(pending)-1]

		// The final packet is "sent reliably" (§3.2.3): retransmitted until
		// a response arrives. For the full-retransmission strategies a
		// silent Tr instead retransmits the whole sequence (§3.2.1–3.2.2),
		// so their inner loop runs exactly once per round.
		lastTries := 0
		for attempts < c.MaxAttempts {
			attempts++
			// The FlagLast packet is always sent synchronously so that Tr
			// starts when it has actually left the interface. Its attempt
			// number advances per retry so retries count as retransmissions.
			if err := sendData(env, c, res, b.scratch, last, total, round+lastTries, true, false); err != nil {
				return err
			}
			lastTries++
			sent := env.Now()
			if attempts == 1 && b.stage != nil {
				b.stageWindow(end, next)
			}
			nak, done := awaitBlastResponse(env, c, res, base, end, &b.est)
			if (done || nak != nil) && lastTries == 1 {
				// Karn's rule: the response unambiguously answers this
				// round's single transmission of the reliable last.
				b.est.sample(env.Now() - sent)
			}
			if done {
				return nil
			}
			if nak != nil {
				// A NAK: reshape the pending set per the strategy.
				pending = pending[:0]
				switch c.Strategy {
				case FullNak:
					for seq := base; seq < end; seq++ {
						pending = append(pending, seq)
					}
				case GoBackN:
					for seq := int(nak.Seq); seq < end; seq++ {
						pending = append(pending, seq)
					}
				case Selective:
					for _, seq := range filterWindow(nakMissing(nak), base, end) {
						pending = append(pending, seq)
					}
					if len(pending) == 0 {
						pending = append(pending, end-1)
					}
				default: // FullNoNak receivers never NAK; treat as timeout
					for seq := base; seq < end; seq++ {
						pending = append(pending, seq)
					}
				}
				round++
				break
			}
			// Timeout.
			switch c.Strategy {
			case FullNoNak, FullNak:
				// Retransmit the whole sequence.
				pending = pending[:0]
				for seq := base; seq < end; seq++ {
					pending = append(pending, seq)
				}
				round++
			case GoBackN, Selective:
				// Retransmit only the reliable last packet.
				continue
			}
			break
		}
	}
	return fmt.Errorf("blast window [%d,%d): %w", base, end, ErrGiveUp)
}

// sendData fills scratch with one data packet and transmits it, choosing
// sync or async semantics.
func sendData(env Env, c Config, res *SendResult, scratch *wire.Packet, seq, total, attempt int, last, async bool) error {
	pkt := c.fillData(scratch, seq, total, attempt, last || seq == total-1)
	var err error
	if async {
		err = env.SendAsync(pkt)
	} else {
		err = env.Send(pkt)
	}
	if err != nil {
		return err
	}
	res.DataPackets++
	if attempt > 0 {
		res.Retransmits++
	}
	return nil
}

// awaitBlastResponse waits up to est's timeout for the receiver's verdict on
// the window [base, end). It returns (nil, true) when a cumulative ack
// covering the window arrived, (nak, false) when a NAK for the window
// arrived, and (nil, false) on timeout, after backing est off.
func awaitBlastResponse(env Env, c Config, res *SendResult, base, end int, est *rto) (nak *wire.Packet, done bool) {
	resp, err := awaitReply(env, est.cur, func(p *wire.Packet) bool {
		if p.Trans != c.TransferID {
			return false
		}
		switch p.Type {
		case wire.TypeAck:
			res.AcksReceived++
			return int(p.Seq) >= end // else a stale ack from an earlier window
		case wire.TypeNak:
			res.NaksReceived++
			// A NAK names the window's first missing packet, which no
			// answer to this window can put below base: a lower one is a
			// straggler answering an earlier window.
			return int(p.Seq) >= base && int(p.Seq) < end
		}
		return false
	})
	if err != nil {
		res.Timeouts++
		est.backoff()
		return nil, false
	}
	if resp.Type == wire.TypeNak {
		return resp, false
	}
	return nil, true
}

// nakMissing extracts the selective missing set from a NAK, decoding the
// bitmap payload for real packets or using the in-memory list for simulated
// ones.
func nakMissing(nak *wire.Packet) []uint32 {
	if nak.SimMissing != nil {
		return nak.SimMissing
	}
	if len(nak.Payload) > 0 {
		if missing, err := wire.DecodeMissing(nak.Payload); err == nil {
			return missing
		}
	}
	// Degenerate NAK: fall back to go-back-n from its first-missing field.
	return []uint32{nak.Seq}
}

// filterWindow filters a missing list to the window [base, end), as ints.
func filterWindow(missing []uint32, base, end int) []int {
	out := make([]int, 0, len(missing))
	for _, m := range missing {
		if s := int(m); s >= base && s < end {
			out = append(out, s)
		}
	}
	return out
}

// recvBlast implements the blast receiver for all four strategies: data
// packets are accepted in any order into the pre-allocated transfer buffer
// (the MoveTo contract guarantees it exists); a FlagLast arrival triggers
// the strategy's response (§3.2).
//
// A gap below a FlagLast meant a loss on the paper's Ethernet, which never
// reordered. A path that does reorder teaches the receiver a reorder window
// reo, after RACK (RFC 8985): once reo is open, a gapped FlagLast's verdict
// is held until reo has passed since it arrived — an ACK at once if the gaps
// fill first, the strategy's NAK if they do not. reo opens when a first
// transmission arrives for a packet a NAK reported missing (the DSACK signal
// of RFC 3708): it becomes the longest such lateness, measured from the
// FlagLast the NAK answered, and at least rtoFloor. It starts at 0, so a
// path that never reorders is answered at once, as the paper's receiver was.
func recvBlast(env Env, c Config) (RecvResult, error) {
	var res RecvResult
	n := c.NumPackets()
	got := make([]bool, n)
	count := 0
	firstMissing := 0
	high := 0 // high-water mark of FlagLast sequence numbers + 1
	start := env.Now()
	idle, wait := c.receiverIdle(), c.firstWait()
	ack := new(wire.Packet)
	// While held, a gapped FlagLast's verdict waits out reo from heldAt.
	// Every gap below nakEnd was reported by the NAK that answered the
	// FlagLast arriving at nakAt: a gap still open was open then, too.
	var (
		reo, heldAt, nakAt time.Duration
		held               bool
		nakEnd             int
	)

	// filled reports whether the window being judged has no gap left. That
	// window ends at the highest FlagLast sequence seen so far: in every
	// window's first round the true final packet carries FlagLast, and later
	// rounds may flag an earlier packet (the reliable last of a partial or
	// selective retransmission, §3.2.3) without shrinking the window under
	// judgement.
	filled := func() bool {
		for firstMissing < n && got[firstMissing] {
			firstMissing++
		}
		return firstMissing >= high
	}
	// nak builds the strategy's NAK for the gaps below high, answering the
	// FlagLast that arrived at flagAt.
	nak := func(flagAt time.Duration) *wire.Packet {
		var missing []uint32
		if c.Strategy == Selective {
			for seq := firstMissing; seq < high; seq++ {
				if !got[seq] {
					missing = append(missing, uint32(seq))
				}
			}
		}
		p, err := c.nakPacket(firstMissing, n, missing)
		if err != nil {
			// Bitmap too wide for one NAK: degrade to go-back-n.
			p, _ = c.nakPacket(firstMissing, n, nil)
		}
		nakEnd, nakAt = high, flagAt
		return p
	}
	// respond builds the strategy's reply to a data packet, or nil. The
	// paper's receiver speaks only when "it receives the last packet"
	// (§3.2.2); the one other packet answered is the one that fills a held
	// window's last gap. FullNoNak never NAKs (§3.2.1), so it never holds.
	// A FlagLast during a hold is the sender's retry: its timer has run out,
	// so the held verdict goes at once.
	respond := func(pkt *wire.Packet) *wire.Packet {
		if !pkt.IsLast() {
			if held && filled() {
				held = false
				return c.fillAck(ack, high, n)
			}
			return nil
		}
		if e := int(pkt.Seq) + 1; e > high {
			high = e
		}
		if filled() {
			held = false
			return c.fillAck(ack, high, n)
		}
		if c.Strategy == FullNoNak {
			return nil
		}
		if held {
			held = false
			return nak(heldAt)
		}
		if reo > 0 {
			held, heldAt = true, env.Now()
			return nil
		}
		return nak(env.Now())
	}
	answer := func(reply *wire.Packet) error {
		if reply == nil {
			return nil
		}
		if err := env.Send(reply); err != nil {
			return err
		}
		if reply.Type == wire.TypeAck {
			res.AcksSent++
		} else {
			res.NaksSent++
		}
		return nil
	}

	for count < n {
		w := wait
		if held {
			if w = heldAt + reo - env.Now(); w <= 0 {
				// The reorder window has passed with gaps still open:
				// they are lost.
				held = false
				if err := answer(nak(heldAt)); err != nil {
					return res, err
				}
				continue
			}
		}
		pkt, err := recvOwn(env, c.TransferID, w)
		if held && IsTimeout(err) {
			continue // the hold has run out: its NAK goes above
		}
		if err != nil {
			res.Elapsed = env.Now() - start
			return res, fmt.Errorf("blast receiver idle with %d/%d packets: %w", count, n, err)
		}
		if wait != idle { // the first own packet: the transfer is under way
			wait, res.firstAt = idle, env.Now()-start
		}
		if pkt.Type != wire.TypeData {
			if err := receiverControl(env, c, pkt, res.DataPackets > 0); err != nil {
				res.Elapsed = env.Now() - start
				return res, err
			}
			continue
		}
		res.DataPackets++
		seq := int(pkt.Seq)
		if seq >= 0 && seq < n && !got[seq] {
			if seq < nakEnd && pkt.Attempt == 0 {
				// A NAK reported this packet missing, yet its first
				// transmission came: it was late, not lost.
				reo = max(reo, env.Now()-nakAt, rtoFloor)
			}
			got[seq] = true
			count++
			deliverChunk(&res, c, pkt)
		} else {
			res.Duplicates++
		}
		if err := answer(respond(pkt)); err != nil {
			return res, err
		}
	}
	res.Completed = true
	res.Elapsed = env.Now() - start
	finishData(&res)
	lingerReAck(env, c, &res, respond)
	return res, nil
}
