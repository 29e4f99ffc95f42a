package core

import (
	"fmt"
	"time"

	"blastlan/internal/wire"
)

// sendStopAndWait implements the paper's stop-and-wait sender: the source
// refrains from sending a packet until it has received an acknowledgement
// for the previous one (Figure 1, Figure 3.a). Lost packets or acks are
// handled by retransmitting the single outstanding packet after Tr (§3.1.1).
func sendStopAndWait(env Env, c Config) (SendResult, error) {
	var res SendResult
	start := env.Now()
	n := c.NumPackets()
	est := newRTO(c)
	scratch := new(wire.Packet)
	for seq := 0; seq < n; seq++ {
		acked := false
		for attempt := 0; attempt < c.MaxAttempts && !acked; attempt++ {
			if err := env.Send(c.fillData(scratch, seq, n, attempt, seq == n-1)); err != nil {
				return res, err
			}
			res.DataPackets++
			if attempt > 0 {
				res.Retransmits++
			}
			res.Rounds++
			sent := env.Now()
			acked = awaitCumulativeAck(env, c, &res, seq+1, &est)
			if acked && attempt == 0 {
				// Karn's rule: sample only unambiguous exchanges.
				est.sample(env.Now() - sent)
			}
		}
		if !acked {
			return res, fmt.Errorf("stop-and-wait seq %d: %w", seq, ErrGiveUp)
		}
	}
	res.Elapsed = env.Now() - start
	res.SRTT = est.srtt
	return res, nil
}

// awaitCumulativeAck waits up to est's timeout for an acknowledgement with
// Seq >= want, ignoring stale acks and foreign packets, and backs est off
// if none comes. It reports whether the ack arrived before the timeout.
func awaitCumulativeAck(env Env, c Config, res *SendResult, want int, est *rto) bool {
	_, err := awaitReply(env, est.cur, func(p *wire.Packet) bool {
		if p.Trans != c.TransferID || p.Type != wire.TypeAck {
			return false
		}
		res.AcksReceived++
		return int(p.Seq) >= want // else a stale (duplicate) ack
	})
	if IsTimeout(err) {
		res.Timeouts++
		est.backoff()
	}
	return err == nil
}

// receiverControl handles a non-data packet of the receiver's transfer. A
// BUSY before any data is the server's admission refusal, returned at once
// (it is not a timeout, so Request sees it); once data has flowed we were
// admitted, and a BUSY is a straggler from an earlier refused REQ. A REQ is a
// retransmitted push announcement whose go-ahead was lost: it earns another.
func receiverControl(env Env, c Config, pkt *wire.Packet, admitted bool) error {
	switch pkt.Type {
	case wire.TypeBusy:
		if !admitted {
			return busyErrorOf(pkt)
		}
	case wire.TypeReq:
		return env.Send(goAhead(c))
	}
	return nil
}

// recvInOrder is the shared receiver for stop-and-wait and sliding-window:
// data packets are delivered in order and every data packet is answered
// with a cumulative acknowledgement carrying the next expected sequence
// number. Duplicates and out-of-order packets re-elicit the current
// cumulative ack, which is what makes go-back-n recovery work.
func recvInOrder(env Env, c Config) (RecvResult, error) {
	var res RecvResult
	n := c.NumPackets()
	next := 0
	start := env.Now()
	idle, wait := c.receiverIdle(), c.firstWait()
	ack := new(wire.Packet)
	for next < n {
		pkt, err := recvOwn(env, c.TransferID, wait)
		if err != nil {
			res.Elapsed = env.Now() - start
			return res, fmt.Errorf("receiver idle with %d/%d packets: %w", next, n, err)
		}
		wait = idle
		if pkt.Type != wire.TypeData {
			if err := receiverControl(env, c, pkt, res.DataPackets > 0); err != nil {
				res.Elapsed = env.Now() - start
				return res, err
			}
			continue
		}
		res.DataPackets++
		if int(pkt.Seq) == next {
			deliverChunk(&res, c, pkt)
			next++
		} else {
			res.Duplicates++
		}
		if err := env.Send(c.fillAck(ack, next, n)); err != nil {
			return res, err
		}
		res.AcksSent++
	}
	res.Completed = true
	res.Elapsed = env.Now() - start
	finishData(&res)
	lingerReAck(env, c, &res, func(pkt *wire.Packet) *wire.Packet {
		return c.fillAck(ack, n, n)
	})
	return res, nil
}

// deliverChunk accounts for (and in real mode stores or streams) one new
// data packet. With Config.Sink set the chunk is handed to the sink and the
// whole-transfer checksum accumulates incrementally — no transfer-sized
// buffer ever exists.
func deliverChunk(res *RecvResult, c Config, pkt *wire.Packet) {
	if pkt.Payload != nil {
		off := int(pkt.Seq) * c.ChunkSize
		if c.Sink != nil {
			res.usedSink = true
			if sum, ok := pkt.PayloadSum(); ok {
				res.sinkSum.AddSumAt(off, sum) // decoding already read the bytes
			} else {
				res.sinkSum.AddAt(off, pkt.Payload)
			}
			c.Sink(off, pkt.Payload)
			res.Bytes += len(pkt.Payload)
			return
		}
		if res.Data == nil {
			res.Data = make([]byte, c.Bytes)
		}
		copy(res.Data[off:], pkt.Payload)
		res.Bytes += len(pkt.Payload)
		return
	}
	size := c.ChunkSize
	if rem := c.Bytes - int(pkt.Seq)*c.ChunkSize; rem < size {
		size = rem
	}
	res.Bytes += size
}

// finishData computes the whole-transfer software checksum (the one Spector
// suggests for multi-packet transfers, §4) once all chunks are assembled —
// or, for streamed (Sink) transfers, closes the incremental accumulator.
func finishData(res *RecvResult) {
	if res.Data != nil {
		res.Checksum = wire.Checksum(res.Data)
		return
	}
	if res.usedSink {
		res.Checksum = res.sinkSum.Sum16()
	}
}

// lingerReAck keeps the receiver alive for Config.Linger after completion,
// re-answering retransmitted data whose acknowledgements were evidently
// lost. respond builds the reply for a retransmitted packet; returning nil
// suppresses the reply. The linger timer restarts on every received packet
// of the transfer.
// A FlagDone FIN from the sender ends the linger immediately.
func lingerReAck(env Env, c Config, res *RecvResult, respond func(*wire.Packet) *wire.Packet) {
	for {
		pkt, err := recvOwn(env, c.TransferID, c.Linger)
		if err != nil {
			return // silence: the sender is satisfied (or gone)
		}
		if pkt.Type == wire.TypeAck && pkt.Flags&wire.FlagDone != 0 {
			return // the sender has its ack: release the receiver
		}
		if pkt.Type != wire.TypeData {
			continue
		}
		res.DataPackets++
		res.Duplicates++
		res.LingerEvents++
		if reply := respond(pkt); reply != nil {
			if env.Send(reply) != nil {
				return
			}
			if reply.Type == wire.TypeAck {
				res.AcksSent++
				res.LingerAcks++
			} else {
				res.NaksSent++
				res.LingerNaks++
			}
		}
	}
}

// receiverIdle bounds how long the receiver waits for the next packet of an
// incomplete transfer before concluding the sender is gone.
func (c Config) receiverIdle() time.Duration {
	if c.ReceiverIdle > 0 {
		return c.ReceiverIdle
	}
	// Generous default: virtual time is free in simulation, and real
	// callers set an explicit bound. Must comfortably exceed any legitimate
	// inter-packet gap (a full window retransmission plus several Tr).
	return 64*c.RetransTimeout + 10*time.Second
}

// firstWait bounds the receiver's wait for its transfer's first own packet:
// Config.firstIdle when Request set one shorter than the idle bound, the
// idle bound otherwise.
func (c Config) firstWait() time.Duration {
	if idle := c.receiverIdle(); c.firstIdle <= 0 || c.firstIdle > idle {
		return idle
	}
	return c.firstIdle
}
