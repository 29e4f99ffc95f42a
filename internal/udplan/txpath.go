package udplan

import (
	"net"
	"syscall"

	"blastlan/internal/wire"
)

// txPath is the transmit side of every UDP Env — a client Endpoint and a
// server session embed the same one, so there is exactly one encode → commit
// → flush sequence and one implementation of core.Datapath to reason
// about and to measure. A packet is encoded straight into the next slot of a
// frame ring (no allocation) and the ring flushes through the datapath tier
// the socket was probed to: one GSO superbuffer, one sendmmsg, or a WriteTo
// loop. The ring is always there; with batching off it has a single slot, so
// every commit is its own flush and no caller forks on "batched or not".
//
// Like the Envs that embed it, a txPath belongs to one goroutine.
type txPath struct {
	conn net.PacketConn
	raw  syscall.RawConn // non-nil when the socket supports raw batched I/O
	peer net.Addr
	ring *txBatch
	ms   mmsgSender
	gs   gsoSender
	tier Tier
	line *linePacer // modeled link shared with the socket's other writers (nil: unlimited)

	// stage is the second frame ring (core.Stager): the next window's frames,
	// encoded while this window's response is in flight and released through
	// flushFrames when their turn comes. Drawn on first use.
	stage *txBatch

	// closed is set once release has returned the rings to the slab pool.
	closed bool
}

// setRing (re)builds the frame ring: n slots of mtu bytes, flushed through
// tier. Frames still queued were encoded against the old geometry and go out
// first, through the old tier; then the old ring and the stage go back to the
// slab pool (staged frames were encoded against the old geometry too). The
// ring is rebuilt even when that flush fails; setRing returns the failure.
func (t *txPath) setRing(tier Tier, n, mtu int) error {
	var err error
	if t.ring != nil {
		err = t.ring.Flush()
	}
	t.dropRings()
	if n < 1 {
		n = 1
	}
	t.tier = tier
	t.ring = newTxBatch(n, mtu, t.flushFrames)
	return err
}

// dropRings returns the frame ring and the stage to the slab pool.
func (t *txPath) dropRings() {
	t.ring.release()
	t.stage.release()
	t.stage = nil
}

// release ends the path once its owner has flushed it: the rings go back to
// the slab pool, and FlushBatch reports net.ErrClosed from then on.
func (t *txPath) release() {
	t.dropRings()
	t.closed = true
}

// Send is the one transmit sequence: encode into the next ring slot, commit
// it (a full ring flushes), flush at once behind control traffic and the
// reliable last packet of a window.
func (t *txPath) Send(p *wire.Packet) error {
	buf, err := t.encode(p)
	if err != nil {
		return err
	}
	if err := t.ring.commit(len(buf)); err != nil {
		return err
	}
	return t.flushControl(p)
}

// SendAsync is Send: UDP writes do not wait for transmission anyway.
func (t *txPath) SendAsync(p *wire.Packet) error { return t.Send(p) }

// encode writes p into the current free ring slot and returns the encoded
// frame, still uncommitted.
func (t *txPath) encode(p *wire.Packet) ([]byte, error) {
	slot := t.ring.slot()
	n, err := p.EncodeInto(slot)
	if err != nil {
		return nil, err
	}
	return slot[:n], nil
}

// flushControl keeps acknowledgement exchanges at single-packet latency:
// only unreliable mid-window data may linger in the ring.
func (t *txPath) flushControl(p *wire.Packet) error {
	if p.Type != wire.TypeData || p.Flags&wire.FlagLast != 0 {
		return t.ring.Flush()
	}
	return nil
}

// flushFrames writes frames[0:n] to the peer through the highest rung of the
// datapath ladder the tier allows, degrading per flush when a rung cannot
// take the frames (an unroutable peer, a platform stub): GSO superbuffer →
// sendmmsg → WriteTo loop. A modeled line rate charges the whole flush
// before it hits the socket, serializing this writer's frames against every
// other writer's on the same link.
func (t *txPath) flushFrames(frames [][]byte, lens []int, n int) error {
	if t.line != nil {
		total := 0
		for _, l := range lens[:n] {
			total += l
		}
		t.line.wait(total)
	}
	if t.tier >= TierGSO {
		if handled, err := sendGSO(t.raw, &t.gs, t.peer, frames, lens, n); handled {
			return err
		}
	}
	if t.tier >= TierMmsg {
		if handled, err := sendBatch(t.raw, &t.ms, t.peer, frames, lens, n); handled {
			return err
		}
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if _, err := t.conn.WriteTo(frames[i][:lens[i]], t.peer); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// stageFactor bounds the stage at this many frame rings: 128 frames, 256 KiB
// at the default batch and MTU — a whole window of the sizes that have a next
// window to stage.
const stageFactor = 4

// Stage implements core.Stager.
func (t *txPath) Stage(p *wire.Packet) bool {
	if t.closed {
		return false
	}
	if t.stage == nil {
		t.stage = newTxBatch(stageFactor*len(t.ring.frames), len(t.ring.frames[0]), nil)
	}
	st := t.stage
	if st.queued == len(st.frames) {
		return false
	}
	n, err := p.EncodeInto(st.slot())
	if err != nil {
		return false
	}
	st.lens[st.queued] = n
	st.queued++
	return true
}

// Staged implements core.Stager.
func (t *txPath) Staged() int {
	if t.stage == nil {
		return 0
	}
	return t.stage.queued
}

// ReleaseStaged implements core.Stager: the first n staged frames go out
// behind whatever the ring holds, cut into the flushes the ring would have
// made of them; the stage is empty afterwards.
func (t *txPath) ReleaseStaged(n int) error {
	st := t.stage
	if st == nil {
		return nil
	}
	n = min(n, st.queued)
	st.queued = 0
	if n <= 0 {
		return nil
	}
	if err := t.FlushBatch(); err != nil {
		return err
	}
	for off, unit := 0, len(t.ring.frames); off < n; off += unit {
		if err := t.ring.flush(st.frames[off:], st.lens[off:], min(unit, n-off)); err != nil {
			return err
		}
	}
	return nil
}

// FlushBatch implements core.Datapath: every queued frame goes on the wire,
// in queue order.
func (t *txPath) FlushBatch() error {
	if t.closed {
		return net.ErrClosed
	}
	return t.ring.Flush()
}

// Batch reports the configured ring size (1 when batching is off).
func (t *txPath) Batch() int { return len(t.ring.frames) }

// Tier reports the active transmit tier (TierWriteTo when batching is off).
func (t *txPath) Tier() Tier { return t.tier }
