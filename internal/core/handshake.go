package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// This file holds the one conversation every transfer opens with: a REQ,
// re-sent on silence until its answer comes, the way the paper sends a
// window's last packet "reliably" (§3.2.3). The REQ is the paper's
// MoveFrom/MoveTo request (§2) and carries every parameter both sides must
// agree on — the stand-in for the V IPC message exchange that guarantees
// "the recipient has sufficient buffers allocated to receive the data prior
// to the transfer". Four requests share the one ask loop and differ only in
// the answer they wait for and how long each attempt waits:
//
//	Request   the transfer's data, taken by the receiver   Tr to its first packet, then 4·Tr idle
//	Stat      a stat reply (StatReply)                      Tr
//	Push      the go-ahead (goAhead)                        Tr
//	Copy      a copy progress ack, final reply or NAK       4·Tr
//
// A server answers a REQ for data, a stat or a push at once, from the
// session that REQ opens, so a round trip is all a live one needs and Tr of
// silence means the REQ or its answer was lost. A copy's first answer may
// wait on the server dialing the copy's target, so it keeps 4·Tr.
//
// A BUSY for the transfer is the server's admission refusal: the loop
// sleeps its retry-after hint and asks again, and a request refused on every
// attempt fails as both ErrGiveUp and the last *BusyError.

// ReqOf encodes a transfer configuration as a request payload. The
// rate-control policy rides as its wire id; an unknown policy name encodes
// as the AIMD id.
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
// policy byte resolves through the policy table — an id this build does not
// know degrades to AIMD (see ControllerNameOf), so a newer client's request
// is served rather than refused.
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

// reqPacket wraps request r for c's transfer. Like all control packets it
// occupies AckSize bytes on a simulated wire.
func (c *Config) reqPacket(r wire.Req) *wire.Packet {
	return &wire.Packet{
		Type:        wire.TypeReq,
		Trans:       c.TransferID,
		Payload:     wire.EncodeReq(r),
		VirtualSize: c.AckSize,
	}
}

// ask holds one request exchange: it sends req, then lets wait spend up to
// patience on the answer, up to c.MaxAttempts times. wait returns nil once
// answered, a timeout error on silence (req is re-sent) and a *BusyError on a
// refusal, which ask honours by sleeping the server's hint before asking
// again — unless c.surfaceBusy hands the refusal to the caller. Any other
// error ends the exchange.
func ask(env Env, c *Config, req *wire.Packet, patience time.Duration, wait func(patience time.Duration) error) error {
	var last *BusyError
	refusals := 0
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		if err := env.Send(req); err != nil {
			return err
		}
		err := wait(patience)
		if err == nil {
			return nil
		}
		var busy *BusyError
		switch {
		case errors.As(err, &busy):
			if c.surfaceBusy {
				return err
			}
			last = busy
			refusals++
			sleepOn(env, busy.wait(c.RetransTimeout))
		case !IsTimeout(err):
			return err
		}
	}
	if refusals == c.MaxAttempts {
		return fmt.Errorf("refused %d times: %w: %w", refusals, ErrGiveUp, last)
	}
	return ErrGiveUp
}

// askFor holds an exchange whose answer is one packet: the first that answer
// accepts, returned valid until the next Recv. A BUSY for c's transfer is the
// refusal ask honours.
func askFor(env Env, c *Config, req *wire.Packet, patience time.Duration, answer func(*wire.Packet) bool) (*wire.Packet, error) {
	var got *wire.Packet
	err := ask(env, c, req, patience, func(patience time.Duration) error {
		pkt, err := awaitReply(env, patience, func(p *wire.Packet) bool {
			return p.Type == wire.TypeBusy && p.Trans == c.TransferID || answer(p)
		})
		if err != nil {
			return err
		}
		if pkt.Type == wire.TypeBusy {
			return busyErrorOf(pkt)
		}
		got = pkt
		return nil
	})
	return got, err
}

// awaitReply is the engines' one bounded wait: it receives until answer
// accepts a packet, charging each Recv's elapsed time against budget. It
// returns the accepted packet (valid until the next Recv), or the error that
// ended the wait — the Recv's own, or os.ErrDeadlineExceeded once the budget
// is spent on packets answer passed over.
func awaitReply(env Env, budget time.Duration, answer func(*wire.Packet) bool) (*wire.Packet, error) {
	remaining := budget
	for remaining > 0 {
		t0 := env.Now()
		pkt, err := env.Recv(remaining)
		if err != nil {
			return nil, err
		}
		remaining -= env.Now() - t0
		if answer(pkt) {
			return pkt, nil
		}
	}
	return nil, os.ErrDeadlineExceeded
}

// recvOwn is the receivers' wait for the next packet of transfer trans,
// idle at most. Packets of another transfer on the conn — stragglers of a
// session the client has moved on from — are passed over but do not restart
// the wait: from the first of them on, the rest of it is awaitReply's budget.
// The common case, an own packet, costs one Recv and no clock reads.
func recvOwn(env Env, trans uint32, idle time.Duration) (*wire.Packet, error) {
	pkt, err := env.Recv(idle)
	if err != nil || pkt.Trans == trans {
		return pkt, err
	}
	return awaitReply(env, idle, func(p *wire.Packet) bool { return p.Trans == trans })
}

// Request asks the peer to blast the configured transfer to us and receives
// it. The first data packet should arrive a round trip after the REQ lands,
// so each attempt's receiver waits Tr for it and the REQ is asked again on
// silence: a lost REQ costs Tr, and a server that never answers costs
// Config.MaxAttempts·Tr. Once a packet of the transfer has arrived the
// transfer is under way, and the attempt gives up only after 4·Tr of
// silence. RecvResult.Reqs counts the REQs sent and Refusals the BUSY
// answers among them, on success and failure alike.
func Request(env Env, cfg Config) (RecvResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return RecvResult{}, err
	}
	// Counters accumulate across attempts, so even a failed request reports
	// every packet that actually crossed the wire — the resume layer's
	// recovery accounting depends on partial sessions not vanishing.
	var acc, res RecvResult
	err = ask(env, &c, c.reqPacket(ReqOf(c, false)), 4*c.RetransTimeout, func(patience time.Duration) error {
		probe := c
		probe.ReceiverIdle, probe.firstIdle = patience, c.RetransTimeout
		var err error
		res, err = RunReceiver(env, probe)
		res.Reqs = 1 // this attempt's
		var busy *BusyError
		if errors.As(err, &busy) {
			res.Refusals = 1
		}
		addRecv(&acc, res)
		return err
	})
	if err != nil {
		return acc, fmt.Errorf("request for transfer %d: %w", c.TransferID, err)
	}
	res.DataPackets, res.Duplicates = acc.DataPackets, acc.Duplicates
	res.AcksSent, res.NaksSent = acc.AcksSent, acc.NaksSent
	res.LingerEvents = acc.LingerEvents
	res.LingerAcks, res.LingerNaks = acc.LingerAcks, acc.LingerNaks
	res.Reqs, res.Refusals = acc.Reqs, acc.Refusals
	return res, nil
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
// RetryAfter is the server's back-off hint. The ask loop honours it; a
// request refused on every attempt fails with the last refusal, and
// PullResume, which owns its own back-off, sees every refusal at once.
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
	if p.Flags&wire.FlagDone == 0 {
		return 0, false
	}
	return countAck(p, trans)
}

// countAck decodes the 8-byte count an ack for trans carries: a stat
// reply's size, or a copy's progress.
func countAck(p *wire.Packet, trans uint32) (int64, bool) {
	if p.Type != wire.TypeAck || p.Trans != trans || len(p.Payload) != 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(p.Payload)), true
}

// controlDefaults fills in what a control exchange (Stat, Copy) needs of
// cfg when the caller left it unset: Tr 100 ms, 10 attempts and the ack
// size. Unlike withDefaults it checks no transfer: Bytes may be zero.
func (c Config) controlDefaults() Config {
	if c.RetransTimeout <= 0 {
		c.RetransTimeout = 100 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 10
	}
	if c.AckSize <= 0 {
		c.AckSize = params.AckPacketSize
	}
	return c
}

// Stat asks the serving side for the size of the named object, so a pull —
// striped or not — can size its REQ exactly. The server answers from the
// hook that accepts the REQ, so each attempt waits Tr, as Push's does for
// its go-ahead: a lost stat REQ or reply costs Tr. cfg supplies the
// transfer id, retransmit timeout, attempt bound and ack size (Bytes may be
// zero — no transfer starts, and the session stays open for the pull that
// follows).
func Stat(env Env, cfg Config, name string) (int64, error) {
	if !wire.ValidReqName(name) {
		return 0, fmt.Errorf("%w: object name %q does not fit the request encoding", ErrBadConfig, name)
	}
	c := cfg.controlDefaults()
	req := c.reqPacket(wire.Req{Stat: true, Name: name, TrMicros: uint64(c.RetransTimeout / time.Microsecond)})
	reply, err := askFor(env, &c, req, c.RetransTimeout, func(p *wire.Packet) bool {
		_, ok := statSize(p, c.TransferID)
		return ok
	})
	if err != nil {
		return 0, fmt.Errorf("stat %q: %w", name, err)
	}
	size, _ := statSize(reply, c.TransferID)
	return size, nil
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
// waits up to Tr per attempt for the receiver's go-ahead, and then runs the
// sender.
func Push(env Env, cfg Config) (SendResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return SendResult{}, err
	}
	if _, err := askFor(env, &c, c.reqPacket(ReqOf(c, true)), c.RetransTimeout, func(p *wire.Packet) bool {
		return isGoAhead(p, c.TransferID)
	}); err != nil {
		return SendResult{}, fmt.Errorf("push announce for transfer %d: %w", c.TransferID, err)
	}
	return RunSender(env, c)
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

// ServeOnceID waits up to idle (negative = forever) for a REQ packet, asks
// accept for the matching transfer configuration, and returns it so the
// caller can run its side of the transfer. accept returning false rejects
// the request and keeps waiting; malformed requests are ignored. accept sees
// the REQ packet's transfer id, so a handler that answers a control
// exchange from inside the hook (a stat reply, say) can address the reply
// to the requesting transfer, then either reject the REQ to keep waiting
// under the same idle bound, or accept it with a zero Config to hand the
// next wait back to the caller (the session server waits for a stat's pull
// only as long as a finished transfer lingers).
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
