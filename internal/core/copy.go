package core

import (
	"fmt"
	"time"

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
//	                   or failure                Refusal: a NAK carrying the error text
//
// The first progress ack (0 bytes) doubles as the go-ahead that stops the
// REQ retransmit loop; the final reply is idempotent — A lingers briefly
// re-answering duplicate REQs, like a stat.

// copyProgressQuantum is how many new bytes A must move before it emits
// another progress ack — enough feedback to keep the orchestrator's
// patience window open without an ack per chunk.
const copyProgressQuantum = 1 << 20

// copyProgressPacket reports bytes moved so far: a stat reply without
// FlagDone. It is distinguishable from every other session packet: transfer
// acks carry no payload, stat and copy replies set FlagDone.
func copyProgressPacket(trans uint32, seq uint32, bytes int64) *wire.Packet {
	p := StatReply(trans, bytes)
	p.Seq, p.Flags = seq, 0
	return p
}

// copyProgress recognises a progress ack for the given transfer id.
func copyProgress(p *wire.Packet, trans uint32) (int64, bool) {
	if p.Flags&wire.FlagDone != 0 {
		return 0, false
	}
	return countAck(p, trans)
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

// copyAnswer recognises A's answer to a copy REQ for the given transfer id:
// a progress ack, the final reply or the failure NAK.
func copyAnswer(p *wire.Packet, trans uint32) bool {
	_, progress := copyProgress(p, trans)
	_, final := statSize(p, trans)
	return progress || final || p.Type == wire.TypeNak && p.Trans == trans
}

// Copy asks the serving side to push the named object to target and waits
// for the outcome, reporting intermediate progress through onProgress
// (which may be nil). cfg supplies the transfer id, retransmit timeout and
// attempt bound, as for Stat; Bytes may be zero. The returned count is the
// server's byte total for the completed copy.
func Copy(env Env, cfg Config, name, target string, onProgress func(int64)) (int64, error) {
	if !wire.ValidReqName(name) {
		return 0, fmt.Errorf("%w: object name %q does not fit the request encoding", ErrBadConfig, name)
	}
	if !validCopyTarget(target) {
		return 0, fmt.Errorf("%w: copy target %q does not fit the request encoding", ErrBadConfig, target)
	}
	c := cfg.controlDefaults()
	answer := func(p *wire.Packet) bool { return copyAnswer(p, c.TransferID) }
	req := c.reqPacket(wire.Req{Copy: true, Name: name, Target: target, TrMicros: uint64(c.RetransTimeout / time.Microsecond)})
	resp, err := askFor(env, &c, req, 4*c.RetransTimeout, answer)
	if err != nil {
		return 0, fmt.Errorf("copy %q to %s: %w", name, target, err)
	}
	for {
		if resp.Type == wire.TypeNak {
			return 0, &RemoteCopyError{Msg: string(resp.Payload)}
		}
		if n, ok := statSize(resp, c.TransferID); ok {
			return n, nil
		}
		if onProgress != nil {
			n, _ := copyProgress(resp, c.TransferID)
			onProgress(n)
		}
		// Once A has acknowledged the ask, patience stretches to the
		// receiver's idle bound: the copy itself can be long, and silence
		// only means A is between progress quanta (retransmitting to B, say)
		// — the same reason a data receiver waits ReceiverIdle for an
		// incomplete transfer.
		if resp, err = awaitReply(env, c.receiverIdle(), answer); err != nil {
			if !IsTimeout(err) {
				return 0, err
			}
			// A went quiet for a whole patience window after accepting:
			// re-asking cannot help (the session is gone), so report the
			// abandoned copy rather than spinning the attempt budget.
			return 0, fmt.Errorf("copy %q to %s: lost contact mid-copy: %w", name, target, ErrGiveUp)
		}
	}
}

// ServeCopy runs the serving side of a third-party copy session: it emits
// the accepting progress ack, invokes run — which performs the actual A→B
// push and reports bytes moved through its progress callback — then sends
// the final reply (or the failure NAK) and lingers briefly to re-answer
// duplicate REQs idempotently. The returned count and error mirror run's.
func ServeCopy(env Env, cfg Config, run func(progress func(int64)) (int64, error)) (int64, error) {
	trans := cfg.TransferID
	linger := cfg.Linger
	if linger <= 0 {
		linger = 2*cfg.controlDefaults().RetransTimeout + 100*time.Millisecond
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
		final = Refusal(trans, err.Error())
	}
	if serr := env.Send(final); serr != nil && err == nil {
		return bytes, serr
	}
	// Idempotent linger: a duplicate REQ (the final reply was lost) earns
	// the same reply again.
	awaitReply(env, linger, func(pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeReq {
			_ = env.Send(final)
		}
		return false
	})
	return bytes, err
}
