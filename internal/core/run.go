package core

import "blastlan/internal/wire"

// RunSender executes the sending side of the configured transfer on env.
// It returns when the whole transfer has been acknowledged (or abandoned
// with ErrGiveUp after Config.MaxAttempts rounds).
func RunSender(env Env, cfg Config) (SendResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return SendResult{}, err
	}
	var res SendResult
	switch c.Protocol {
	case StopAndWait:
		res, err = sendStopAndWait(env, c)
	case SlidingWindow:
		res, err = sendSlidingWindow(env, c)
	case Blast:
		res, err = sendBlast(env, c, false)
	case BlastAsync:
		res, err = sendBlast(env, c, true)
	default:
		return SendResult{}, ErrBadConfig // unreachable after withDefaults
	}
	if err == nil {
		// Best-effort FIN after the measurement closes: releases the
		// receiver's linger promptly. It is the one packet of the exchange
		// nobody answers, so a transfer that has seen loss — it re-sent
		// data or timed out — sends it twice: a lost FIN would otherwise
		// cost the receiver its whole linger. A loss-free transfer sends
		// one, and the linger timeout covers its loss.
		fin := c.finPacket()
		_ = env.Send(fin)
		if res.Retransmits > 0 || res.Timeouts > 0 {
			_ = env.Send(fin)
		}
	}
	return res, err
}

// RunReceiver executes the receiving side of the configured transfer on
// env. Per the paper's MoveTo/MoveFrom contract the receiver knows the
// transfer's size before it starts and has buffers allocated.
//
// After completing, the receiver lingers for Config.Linger re-answering
// retransmissions whose acknowledgements were lost, then returns.
func RunReceiver(env Env, cfg Config) (RecvResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return RecvResult{}, err
	}
	switch c.Protocol {
	case StopAndWait, SlidingWindow:
		return recvInOrder(env, c)
	case Blast, BlastAsync:
		return recvBlast(env, c)
	}
	return RecvResult{}, ErrBadConfig // unreachable after withDefaults
}

// TransferChecksum is the whole-transfer software checksum (§4 cites
// Spector's suggestion of an overall checksum on the entire data segment).
// Receivers of real transfers report it in RecvResult.Checksum; senders can
// compare with TransferChecksum(payload).
func TransferChecksum(data []byte) uint16 { return wire.Checksum(data) }
