package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// This file implements the request handshake that precedes a pulled
// transfer: the paper's MoveFrom, where the destination machine asks the
// data's owner to blast it over (§2). The REQ packet carries every
// parameter both sides must agree on — it is the stand-in for the V IPC
// message exchange that guarantees "the recipient has sufficient buffers
// allocated to receive the data prior to the transfer".

// ReqOf encodes a transfer configuration as a request payload. The
// rate-control policy rides as its registered wire id; a policy registered
// without an id encodes as the AIMD id.
func ReqOf(c Config, push bool) wire.Req {
	chunk := c.ChunkSize
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	policy := uint8(0)
	if c.Controller != "" {
		if policy = ControllerID(c.Controller); policy == 0 {
			policy = ControllerID(ControllerAIMD)
		}
	}
	return wire.Req{
		Bytes:        uint64(c.Bytes),
		Chunk:        uint32(chunk),
		Strategy:     uint8(c.Strategy),
		Protocol:     uint8(c.Protocol),
		Push:         push,
		Window:       uint32(c.Window),
		TrMicros:     uint64(c.RetransTimeout / time.Microsecond),
		Adaptive:     policy,
		OffsetChunks: uint32(c.StripeOffset / chunk),
		Total:        uint64(c.StripeTotal),
		Name:         c.Name,
	}
}

// ConfigOf reconstructs a transfer configuration from a request. The
// returned config has no payload; the serving side attaches its data. The
// policy byte resolves through the controller registry — an id this build
// does not know degrades to AIMD (see ControllerNameOf), so a newer
// client's request is served rather than refused.
func ConfigOf(transferID uint32, r wire.Req) Config {
	return Config{
		TransferID:     transferID,
		Bytes:          int(r.Bytes),
		ChunkSize:      int(r.Chunk),
		Protocol:       Protocol(r.Protocol),
		Strategy:       Strategy(r.Strategy),
		Window:         int(r.Window),
		RetransTimeout: time.Duration(r.TrMicros) * time.Microsecond,
		Controller:     ControllerNameOf(r.Adaptive),
		StripeOffset:   int(r.Offset()),
		StripeTotal:    int(r.Total),
		Name:           r.Name,
	}
}

// reqPacket builds the REQ packet for cfg. Like all control packets it
// occupies AckSize bytes on a simulated wire.
func reqPacket(c Config, push bool) *wire.Packet {
	size := c.AckSize
	if size == 0 {
		size = params.AckPacketSize
	}
	return &wire.Packet{
		Type:        wire.TypeReq,
		Trans:       c.TransferID,
		Payload:     wire.EncodeReq(ReqOf(c, push)),
		VirtualSize: size,
	}
}

// Request asks the peer to blast the configured transfer to us and receives
// it. The REQ is retransmitted on silence (it, too, can be lost) up to
// Config.MaxAttempts times.
func Request(env Env, cfg Config) (RecvResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return RecvResult{}, err
	}
	// Bound each receive attempt so a lost REQ retries promptly: the first
	// data packet should arrive within a round trip once the REQ lands.
	attemptIdle := 4 * c.RetransTimeout
	// Counters accumulate across attempts, so even a failed request reports
	// every packet that actually crossed the wire — the resume layer's
	// recovery accounting depends on partial sessions not vanishing.
	var acc RecvResult
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		req := reqPacket(c, false)
		if err := env.Send(req); err != nil {
			return acc, err
		}
		probe := c
		probe.ReceiverIdle = attemptIdle
		res, err := RunReceiver(env, probe)
		addRecv(&acc, res)
		if err == nil {
			res.DataPackets, res.Duplicates = acc.DataPackets, acc.Duplicates
			res.AcksSent, res.NaksSent = acc.AcksSent, acc.NaksSent
			res.LingerEvents = acc.LingerEvents
			res.LingerAcks, res.LingerNaks = acc.LingerAcks, acc.LingerNaks
			return res, nil
		}
		var busy *BusyError
		if errors.As(err, &busy) && !c.surfaceBusy {
			// Refused at admission. Honor the server's hint and ask again —
			// the attempt-loop equivalent of the old silent-drop recovery,
			// but without burning REQ rounds against a server that already
			// said no. Callers that manage their own backoff (PullResume)
			// set surfaceBusy and see the refusal instead.
			sleepOn(env, busy.wait(c.RetransTimeout))
			continue
		}
		if !IsTimeout(err) {
			return acc, err
		}
	}
	return acc, fmt.Errorf("request for transfer %d: %w", cfg.TransferID, ErrGiveUp)
}

// sleepOn idles between request attempts on the env's own clock when it has
// one (a simulated endpoint sleeps in virtual time), wall time otherwise.
func sleepOn(env Env, d time.Duration) {
	if s, ok := env.(interface{ SleepFor(time.Duration) }); ok {
		s.SleepFor(d)
		return
	}
	time.Sleep(d)
}

// Busy is the server's admission refusal for transfer trans: a best-effort
// ack-sized reply telling the requester the server is at capacity (or
// draining) and to retry no sooner than retryAfter. The hint rides in Seq
// as whole milliseconds.
func Busy(trans uint32, retryAfter time.Duration) *wire.Packet {
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return &wire.Packet{
		Type:        wire.TypeBusy,
		Trans:       trans,
		Seq:         uint32(ms),
		VirtualSize: params.AckPacketSize,
	}
}

// BusyError reports that the server refused a request with a BUSY reply.
// RetryAfter is the server's back-off hint; Request surfaces the error
// immediately (it is not a timeout), so callers — PullResume, the striped
// repair path — can honor the hint instead of burning REQ retransmissions
// against a server that has already said no.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy (retry after %v)", e.RetryAfter)
}

// wait is how long to back off before re-requesting: the server's hint, or
// tr when the refusal carried none.
func (e *BusyError) wait(tr time.Duration) time.Duration {
	if e.RetryAfter > 0 {
		return e.RetryAfter
	}
	return tr
}

// busyErrorOf converts a received BUSY packet into its client-side error.
func busyErrorOf(pkt *wire.Packet) *BusyError {
	return &BusyError{RetryAfter: time.Duration(pkt.Seq) * time.Millisecond}
}

// StatReply builds the serving side's answer to a stat request: an
// ack-sized FIN-flagged ack carrying the named object's size as an 8-byte
// payload. The FlagDone + 8-byte-payload combination is what
// distinguishes it from transfer acks (payload-free) on the same session;
// the reply is idempotent, so retransmitted stat REQs just earn another.
func StatReply(trans uint32, size int64) *wire.Packet {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(size))
	return &wire.Packet{
		Type:        wire.TypeAck,
		Trans:       trans,
		Flags:       wire.FlagDone,
		Payload:     payload,
		VirtualSize: params.AckPacketSize,
	}
}

// statSize recognises a stat reply for the given transfer id.
func statSize(p *wire.Packet, trans uint32) (int64, bool) {
	if p.Type != wire.TypeAck || p.Trans != trans ||
		p.Flags&wire.FlagDone == 0 || len(p.Payload) != 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(p.Payload)), true
}

// Stat asks the serving side for the size of the named object, so a pull —
// striped or not — can size its REQ exactly. Like any request the stat REQ
// is retransmitted on silence, and after the server's retry-after hint when
// it answers BUSY; cfg supplies the transfer id, retransmit timeout, attempt
// bound and ack size (Bytes may be zero — no transfer starts, and the
// session stays open for the pull that follows).
func Stat(env Env, cfg Config, name string) (int64, error) {
	if !wire.ValidReqName(name) {
		return 0, fmt.Errorf("%w: object name %q does not fit the request encoding", ErrBadConfig, name)
	}
	tr := cfg.RetransTimeout
	if tr <= 0 {
		tr = 100 * time.Millisecond
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 10
	}
	size := cfg.AckSize
	if size <= 0 {
		size = params.AckPacketSize
	}
	req := &wire.Packet{
		Type:  wire.TypeReq,
		Trans: cfg.TransferID,
		Payload: wire.EncodeReq(wire.Req{
			Stat:     true,
			Name:     name,
			TrMicros: uint64(tr / time.Microsecond),
		}),
		VirtualSize: size,
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if err := env.Send(req); err != nil {
			return 0, err
		}
		remaining := 4 * tr
		for remaining > 0 {
			t0 := env.Now()
			resp, err := env.Recv(remaining)
			if err != nil {
				if IsTimeout(err) {
					break // re-request
				}
				return 0, err
			}
			remaining -= env.Now() - t0
			if n, ok := statSize(resp, cfg.TransferID); ok {
				return n, nil
			}
			if resp.Type == wire.TypeBusy && resp.Trans == cfg.TransferID {
				// Refused at admission: honor the server's hint and ask
				// again, exactly as Request does, instead of waiting out
				// the rest of 4*Tr against a server that already said no.
				sleepOn(env, busyErrorOf(resp).wait(tr))
				break // re-request
			}
		}
	}
	return 0, fmt.Errorf("stat %q: %w", name, ErrGiveUp)
}

// goAhead builds the handshake acknowledgement for a push request: a
// cumulative ack with Seq 0, which data senders ignore as stale, so it can
// never be confused with transfer progress.
func goAhead(c Config) *wire.Packet { return c.fillAck(new(wire.Packet), 0, c.NumPackets()) }

// isGoAhead recognises the handshake acknowledgement.
func isGoAhead(p *wire.Packet, trans uint32) bool {
	return p.Type == wire.TypeAck && p.Trans == trans && p.Seq == 0
}

// Push announces a sender-initiated transfer (the paper's MoveTo over a
// shared medium where the peer must first set up the pre-allocated buffer),
// waits for the receiver's go-ahead, and then runs the sender. The REQ is
// retransmitted on silence, and after the server's retry-after hint when it
// answers BUSY, up to Config.MaxAttempts times.
func Push(env Env, cfg Config) (SendResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return SendResult{}, err
	}
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		if err := env.Send(reqPacket(c, true)); err != nil {
			return SendResult{}, err
		}
		remaining := c.RetransTimeout
		for remaining > 0 {
			t0 := env.Now()
			resp, err := env.Recv(remaining)
			if err != nil {
				if IsTimeout(err) {
					break // re-announce
				}
				return SendResult{}, err
			}
			remaining -= env.Now() - t0
			if isGoAhead(resp, c.TransferID) {
				return RunSender(env, c)
			}
			if resp.Type == wire.TypeBusy && resp.Trans == c.TransferID {
				// Refused at admission: honor the server's hint and announce
				// again, exactly as Request and Stat do, instead of waiting
				// out the rest of Tr against a server that already said no.
				sleepOn(env, busyErrorOf(resp).wait(c.RetransTimeout))
				break // re-announce
			}
		}
	}
	return SendResult{}, fmt.Errorf("push announce for transfer %d: %w", cfg.TransferID, ErrGiveUp)
}

// AcceptPush answers an accepted push request with the go-ahead and runs
// the receiver. Receivers re-issue the go-ahead if the announcement is
// retransmitted (the go-ahead itself can be lost).
func AcceptPush(env Env, cfg Config) (RecvResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return RecvResult{}, err
	}
	if err := env.Send(goAhead(c)); err != nil {
		return RecvResult{}, err
	}
	return RunReceiver(env, c)
}

// ServeOnce waits up to idle (negative = forever) for a REQ packet, asks
// accept for the matching transfer configuration, and returns it so the
// caller can run the sender side. accept returning false rejects the
// request and keeps waiting; malformed requests are ignored.
func ServeOnce(env Env, idle time.Duration, accept func(wire.Req) (Config, bool)) (Config, error) {
	return ServeOnceID(env, idle, func(r wire.Req, _ uint32) (Config, bool) { return accept(r) })
}

// ServeOnceID is ServeOnce with the REQ packet's transfer id passed to
// accept, so handlers that answer control exchanges from inside the accept
// hook (a stat reply, say) can address the reply to the requesting
// transfer before rejecting the REQ to keep the session open.
func ServeOnceID(env Env, idle time.Duration, accept func(r wire.Req, trans uint32) (Config, bool)) (Config, error) {
	for {
		pkt, err := env.Recv(idle)
		if err != nil {
			return Config{}, err
		}
		if pkt.Type != wire.TypeReq {
			continue
		}
		req, err := wire.DecodeReq(pkt.Payload)
		if err != nil {
			continue // malformed request: ignore, keep serving
		}
		if cfg, ok := accept(req, pkt.Trans); ok {
			cfg.TransferID = pkt.Trans
			return cfg, nil
		}
	}
}
