package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// Third-party copy: a thin control session through which an orchestrator
// asks server A to push a named object to server B. The data path is the
// ordinary push engine between A and B — the orchestrator only watches.
// This is the bulk-replication shape WLCG/XRootD HTTP-TPC uses: the client
// that decides a copy should happen is rarely the machine that should
// carry the bytes.
//
// The exchange, all ack-sized control packets on the A↔orchestrator
// session:
//
//	orchestrator → A   REQ{Copy, Name, Target}   retransmitted on silence
//	A → orchestrator   progress acks             TypeAck, 8-byte bytes-so-far
//	A → orchestrator   final reply               TypeAck+FlagDone+8-byte total
//	                   or failure                TypeNak carrying the error text
//
// The first progress ack (0 bytes) doubles as the go-ahead that stops the
// REQ retransmit loop; the final reply is idempotent — A lingers briefly
// re-answering duplicate REQs, like a stat.

// copyProgressQuantum is how many new bytes A must move before it emits
// another progress ack — enough feedback to keep the orchestrator's
// patience window open without an ack per chunk.
const copyProgressQuantum = 1 << 20

// maxCopyErrLen bounds the error text a failure NAK carries.
const maxCopyErrLen = 200

// copyProgressPacket reports bytes moved so far. It is distinguishable
// from every other session packet: transfer acks carry no payload, stat
// and copy replies set FlagDone.
func copyProgressPacket(trans uint32, seq uint32, bytes int64) *wire.Packet {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(bytes))
	return &wire.Packet{
		Type:        wire.TypeAck,
		Trans:       trans,
		Seq:         seq,
		Payload:     payload,
		VirtualSize: params.AckPacketSize,
	}
}

// copyProgress recognises a progress ack for the given transfer id.
func copyProgress(p *wire.Packet, trans uint32) (int64, bool) {
	if p.Type != wire.TypeAck || p.Trans != trans ||
		p.Flags&wire.FlagDone != 0 || len(p.Payload) != 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(p.Payload)), true
}

// copyFailPacket reports a failed copy with its error text. A NAK on a
// copy session can mean nothing else — the orchestrator never receives
// data packets.
func copyFailPacket(trans uint32, msg string) *wire.Packet {
	if len(msg) > maxCopyErrLen {
		msg = msg[:maxCopyErrLen]
	}
	return &wire.Packet{
		Type:        wire.TypeNak,
		Trans:       trans,
		Payload:     []byte(msg),
		VirtualSize: params.AckPacketSize,
	}
}

// RemoteCopyError reports that the serving side attempted the copy and
// failed; Msg is the server's one-line explanation.
type RemoteCopyError struct {
	Msg string
}

func (e *RemoteCopyError) Error() string {
	return fmt.Sprintf("remote copy failed: %s", e.Msg)
}

// validCopyTarget reports whether a target address fits the request
// encoding's second extension.
func validCopyTarget(target string) bool {
	if target == "" || len(target) > wire.MaxReqTarget {
		return false
	}
	for i := 0; i < len(target); i++ {
		if target[i] == 0 {
			return false
		}
	}
	return true
}

// Copy asks the serving side to push the named object to target and waits
// for the outcome, reporting intermediate progress through onProgress
// (which may be nil). cfg supplies the transfer id, retransmit timeout and
// attempt bound, exactly as for Stat; Bytes may be zero. A BUSY refusal is
// honored as Stat honors it: sleep the server's retry-after hint, then ask
// again. When every attempt was refused the error is both ErrGiveUp and the
// last *BusyError. The returned count is the server's byte total for the
// completed copy.
func Copy(env Env, cfg Config, name, target string, onProgress func(int64)) (int64, error) {
	if !wire.ValidReqName(name) {
		return 0, fmt.Errorf("%w: object name %q does not fit the request encoding", ErrBadConfig, name)
	}
	if !validCopyTarget(target) {
		return 0, fmt.Errorf("%w: copy target %q does not fit the request encoding", ErrBadConfig, target)
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
	// Once A has acknowledged the ask, patience stretches to the receiver's
	// idle bound: the copy itself can be long, and silence only means A is
	// between progress quanta (retransmitting to B, say) — the same reason
	// a data receiver waits ReceiverIdle for an incomplete transfer.
	patience := cfg.ReceiverIdle
	if patience <= 0 {
		patience = 64*tr + 10*time.Second
	}
	req := &wire.Packet{
		Type:  wire.TypeReq,
		Trans: cfg.TransferID,
		Payload: wire.EncodeReq(wire.Req{
			Copy:     true,
			Name:     name,
			Target:   target,
			TrMicros: uint64(tr / time.Microsecond),
		}),
		VirtualSize: size,
	}
	accepted := false
	var busy *BusyError // the last refusal
	refusals := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if !accepted {
			if err := env.Send(req); err != nil {
				return 0, err
			}
		}
		remaining := 4 * tr
		if accepted {
			remaining = patience
		}
		for remaining > 0 {
			t0 := env.Now()
			resp, err := env.Recv(remaining)
			if err != nil {
				if IsTimeout(err) {
					break // re-request (or, once accepted, give up below)
				}
				return 0, err
			}
			remaining -= env.Now() - t0
			if resp.Type == wire.TypeBusy && resp.Trans == cfg.TransferID {
				// Refused at admission: honor the server's hint and ask
				// again, exactly as Stat does, instead of giving up on a
				// server that only said not yet.
				busy = busyErrorOf(resp)
				refusals++
				sleepOn(env, busy.wait(tr))
				break // re-request
			}
			if resp.Type == wire.TypeNak && resp.Trans == cfg.TransferID {
				return 0, &RemoteCopyError{Msg: string(resp.Payload)}
			}
			if n, ok := statSize(resp, cfg.TransferID); ok {
				return n, nil
			}
			if n, ok := copyProgress(resp, cfg.TransferID); ok {
				accepted = true
				remaining = patience
				if onProgress != nil {
					onProgress(n)
				}
			}
		}
		if accepted {
			// A went quiet for a whole patience window after accepting:
			// re-asking cannot help (the session is gone), so report the
			// abandoned copy rather than spinning the attempt budget.
			return 0, fmt.Errorf("copy %q to %s: lost contact mid-copy: %w", name, target, ErrGiveUp)
		}
	}
	if refusals == attempts {
		return 0, fmt.Errorf("copy %q to %s: refused %d times: %w: %w", name, target, refusals, ErrGiveUp, busy)
	}
	return 0, fmt.Errorf("copy %q to %s: %w", name, target, ErrGiveUp)
}

// ServeCopy runs the serving side of a third-party copy session: it emits
// the accepting progress ack, invokes run — which performs the actual A→B
// push and reports bytes moved through its progress callback — then sends
// the final reply (or the failure NAK) and lingers briefly to re-answer
// duplicate REQs idempotently. The returned count and error mirror run's.
func ServeCopy(env Env, cfg Config, run func(progress func(int64)) (int64, error)) (int64, error) {
	trans := cfg.TransferID
	tr := cfg.RetransTimeout
	if tr <= 0 {
		tr = 100 * time.Millisecond
	}
	linger := cfg.Linger
	if linger <= 0 {
		linger = 2*tr + 100*time.Millisecond
	}
	// The accepting ack: progress 0. Stops the orchestrator's REQ loop.
	seq := uint32(1)
	if err := env.Send(copyProgressPacket(trans, seq, 0)); err != nil {
		return 0, err
	}
	var lastReported int64
	progress := func(n int64) {
		if n-lastReported < copyProgressQuantum {
			return
		}
		lastReported = n
		seq++
		// Best-effort: a lost progress ack costs nothing, the next quantum
		// brings another.
		_ = env.Send(copyProgressPacket(trans, seq, n))
	}
	bytes, err := run(progress)
	final := StatReply(trans, bytes)
	if err != nil {
		final = copyFailPacket(trans, err.Error())
	}
	if serr := env.Send(final); serr != nil && err == nil {
		return bytes, serr
	}
	// Idempotent linger: a duplicate REQ (the final reply was lost) earns
	// the same reply again.
	remaining := linger
	for remaining > 0 {
		t0 := env.Now()
		pkt, rerr := env.Recv(remaining)
		if rerr != nil {
			break
		}
		remaining -= env.Now() - t0
		if pkt.Type == wire.TypeReq {
			_ = env.Send(final)
		}
	}
	return bytes, err
}
