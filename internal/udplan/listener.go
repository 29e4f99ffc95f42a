package udplan

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// This file is the UDP substrate's implementation of transport.Listener:
// everything socket- and syscall-specific about serving many clients on one
// socket — recvmmsg demux reads into pooled slabs, (raw sockaddr, transfer
// id) keys, whole bursts handed to per-session goroutines each with its own
// txPath. The serving logic itself (session table, REQ-only admission,
// handler dispatch) lives in internal/session and is shared with the
// simulator substrate.

// A burst in flight from the demux loop to a session is the demux ring's
// slab itself, carrying what one received message held: n bytes from one
// source, coalesced by UDP_GRO into seg-byte datagrams (seg 0: a single
// datagram). It is the transport.Message of this substrate, and an inbox
// entry is one pointer, which keeps a deep inbox cheap to make.

// burst returns the received message the slab holds.
func (s *slab) burst() []byte { return s.buf[:s.n] }

// first returns the burst's first datagram.
func (s *slab) first() []byte {
	off := 0
	return splitSeg(s.burst(), int(s.seg), &off)
}

// datagrams counts the datagrams the burst carries.
func (s *slab) datagrams() int {
	if s.seg <= 0 || s.n <= s.seg {
		return 1
	}
	return int((s.n + s.seg - 1) / s.seg)
}

const (
	// inboxFallbackDatagrams sizes a session inbox where the granted receive
	// buffer cannot be read back: this many MTU-sized datagrams.
	inboxFallbackDatagrams = 256
	// minGROInbox is the fewest bursts a session inbox must afford before
	// the demux socket receives coalesced (2 MiB of granted buffer).
	minGROInbox = 32
)

// serverListener adapts one shared socket to transport.Listener.
type serverListener struct {
	conn  net.PacketConn
	raw   syscall.RawConn // non-nil when the socket supports raw batched I/O
	mtu   int
	batch int
	tier  Tier       // transmit tier for session frame rings, probed once per socket
	line  *linePacer // modeled egress line rate shared by all sessions (nil: unlimited)
	gro   bool       // the socket receives coalesced (UDP_GRO): bursts can hold many datagrams
	rx    *rxBatch   // the demux ring: every read of the socket fills it

	// inboxCap is how many bursts one session's inbox queues. Every slab has
	// the same capacity, so the bound is one in bytes: queued slab capacity
	// per session never exceeds the receive buffer the kernel granted the
	// socket, whatever the slab size — a session cannot hold more memory
	// waiting in user space than the socket could hold waiting in the kernel.
	inboxCap int
	drops    *atomic.Int64 // datagrams dropped on full inboxes (Server.InboxDrops)

	keybuf [addrKeyLen + 4]byte // source address, then transfer id
	slot   int                  // the ring slot of the most recent Accept

	wg   sync.WaitGroup
	logf func(format string, args ...any) // the server's Logf (nil: silent)
}

func newServerListener(conn net.PacketConn, batch, mtu int, maxTier Tier) *serverListener {
	l := &serverListener{
		conn:  conn,
		raw:   rawConnOf(conn),
		mtu:   mtu,
		batch: batch,
		tier:  pickTxTier(rawConnOf(conn), batch, maxTier),
		drops: new(atomic.Int64),
	}
	budget := inboxBudget(l.raw, mtu)
	// A GSO-tier socket receives coalesced too: a client's superbuffer
	// crosses the kernel as one message and is split only by the session
	// that consumes it — provided the inbox budget is worth enough
	// superbuffer-sized slabs that a window's worth of lone control
	// datagrams, one slab each, still fits (a socket left at the default
	// buffer is not). Otherwise, and where the kernel refuses UDP_GRO
	// (UDP_SEGMENT without it, 4.18–4.20), the kernel segments inbound
	// superbuffers itself and every burst is one datagram in an MTU slab,
	// as on the lower tiers.
	l.gro = l.tier >= TierGSO && budget/groBufBytes >= minGROInbox && setGRO(l.raw, true)
	l.rx = newRxBatch(batch, mtu, l.gro)
	l.inboxCap = max(1, budget/rxBufSize(mtu, l.gro))
	return l
}

// inboxBudget is how many bytes of slabs one session's inbox may queue: the
// receive buffer the kernel granted the socket, read back once.
func inboxBudget(raw syscall.RawConn, mtu int) int {
	if granted := connReadBuffer(raw); granted > 0 {
		return granted
	}
	return inboxFallbackDatagrams * mtu
}

// transOff is where the wire header carries wire.Packet.Trans (4 bytes,
// big-endian); TestDemuxKeyIsTheWireTransferID holds it to wire's encoding.
const transOff = 6

// Accept returns the next burst on the socket — one received message: a
// pending one from the ring if any, otherwise whatever one blocking
// recvmmsg finds queued in the kernel. The demux key is canonical and
// allocation-free: the source's address key, then the transfer id of the
// burst's first datagram, read from its header at transOff without a
// decode. A GRO burst is one source's datagrams coalesced in the kernel, and
// a client socket carries one transfer at a time, so its first datagram
// speaks for all of it. An id corrupted in flight opens no session (only a
// checksum-valid REQ opens one), and any session it reaches drops it at
// decode.
func (l *serverListener) Accept(idle time.Duration) (transport.Inbound, error) {
	var deadline time.Time
	if idle > 0 {
		deadline = time.Now().Add(idle)
	}
	if err := l.conn.SetReadDeadline(deadline); err != nil {
		return transport.Inbound{}, err
	}
	i, err := l.rx.take(l.conn, l.raw, (*[addrKeyLen]byte)(l.keybuf[:addrKeyLen]))
	if err != nil {
		return transport.Inbound{}, err
	}
	b := l.rx.slabs[i]
	l.slot, b.n, b.seg = i, int32(l.rx.lens[i]), int32(l.rx.segs[i])
	trans := l.keybuf[addrKeyLen:]
	clear(trans)
	if first := b.first(); len(first) >= wire.HeaderSize {
		copy(trans, first[transOff:])
	}
	return transport.Inbound{Key: l.keybuf[:], Msg: b}, nil
}

// ReqOf decodes a burst as a session-opening request: only one led by a
// checksum-valid REQ qualifies.
func (l *serverListener) ReqOf(msg transport.Message) (wire.Req, bool) {
	b, ok := msg.(*slab)
	if !ok {
		return wire.Req{}, false
	}
	var pkt wire.Packet
	if wire.DecodeInto(&pkt, b.first()) != nil || pkt.Type != wire.TypeReq {
		return wire.Req{}, false
	}
	req, err := wire.DecodeReq(pkt.Payload)
	if err != nil {
		return wire.Req{}, false
	}
	return req, true
}

// lastPeer resolves the source of the most recent Accept.
func (l *serverListener) lastPeer() (net.Addr, error) {
	ua := rawToUDPAddr(l.rx.names[l.slot])
	if ua == nil {
		return nil, fmt.Errorf("udplan: unresolvable raw source address")
	}
	return ua, nil
}

// Open creates the session conn for the source of the most recent Accept.
func (l *serverListener) Open() (transport.Conn, transport.Peer, error) {
	peer, err := l.lastPeer()
	if err != nil {
		return nil, nil, err
	}
	// Sized to the inbox's byte budget (see inboxCap), not to a number of
	// sends: the demux loop never blocks on it, a full inbox drops.
	return &serverConn{l: l, peer: peer, inbox: make(chan *slab, l.inboxCap)}, peer, nil
}

// ReplyBusy sends a best-effort BUSY/RETRY-AFTER refusal to the source of
// the most recent Accept (transport.BusyReplier). The reply is a single
// unbatched write: refusals are rare by construction (one per refused REQ
// round trip) and must not sit in a frame ring.
func (l *serverListener) ReplyBusy(msg transport.Message, retryAfter time.Duration) error {
	b, ok := msg.(*slab)
	if !ok {
		return fmt.Errorf("udplan: refused arrival is not a datagram")
	}
	var pkt wire.Packet
	if err := wire.DecodeInto(&pkt, b.first()); err != nil {
		return err
	}
	peer, err := l.lastPeer()
	if err != nil {
		return err
	}
	buf, err := core.Busy(pkt.Trans, retryAfter).Encode(nil)
	if err != nil {
		return err
	}
	_, err = l.conn.WriteTo(buf, peer)
	return err
}

// Drain blocks until every session goroutine has returned, then returns the
// demux ring's slabs to the pool: the loop has stopped accepting.
func (l *serverListener) Drain() {
	l.wg.Wait()
	l.rx.release()
}

// AcceptPoll bounds an otherwise-unbounded Accept so the demux loop can
// notice server state changes (BeginDrain) while the socket is idle; a
// read timeout every quarter second costs nothing.
func (l *serverListener) AcceptPoll() time.Duration { return 250 * time.Millisecond }

// serverConn is one admitted session's channel: a byte-bounded inbox of
// bursts fed by the demux loop, consumed by the session goroutine.
type serverConn struct {
	l       *serverListener
	peer    net.Addr
	inbox   chan *slab
	dropLog time.Time // when this peer's inbox overflow was last logged (demux loop only)
}

// Deliver hands the burst's slab itself to the session and gives the ring
// slot a fresh one: no copy, one channel operation per burst. A full inbox
// drops the burst — an interface drop the protocol recovers from — and the
// slab simply stays in the ring. A slab the ring no longer holds has been
// handed off already.
func (c *serverConn) Deliver(msg transport.Message) {
	b, ok := msg.(*slab)
	if !ok || c.l.rx.slabs[c.l.slot] != b {
		return
	}
	select {
	case c.inbox <- b:
		c.l.rx.replace(c.l.slot)
	default:
		c.l.drops.Add(int64(b.datagrams()))
		if now := time.Now(); c.l.logf != nil && now.Sub(c.dropLog) >= time.Second {
			c.dropLog = now
			c.l.logf("udplan: session %v: inbox full (%d bursts queued); dropped a burst of %d datagram(s), %d dropped on this server so far",
				c.peer, len(c.inbox), b.datagrams(), c.l.drops.Load())
		}
	}
}

// Hangup closes the inbox from the demux side (the demux loop has stopped).
func (c *serverConn) Hangup() { close(c.inbox) }

// Spawn runs the session body in its own goroutine over a channel-fed Env
// with its own transmit path, puts whatever the body left queued on the wire
// once it returns, and then returns the session's slabs to the pool: the
// burst it was walking, its frame ring and its stage.
func (c *serverConn) Spawn(name string, body func(env core.Env)) {
	c.l.wg.Add(1)
	go func() {
		defer c.l.wg.Done()
		env := newSessionEnv(c.l, c.peer, c.inbox)
		body(env)
		if err := env.FlushBatch(); err != nil && !errors.Is(err, net.ErrClosed) && c.l.logf != nil {
			c.l.logf("udplan: session %v: flushing after the session ended: %v", c.peer, err)
		}
		env.recycle()
		env.release()
	}()
}

// sessionEnv adapts one demuxed session to core.Env: receives come from the
// demux loop's channel, sends go to the shared socket through the session's
// own txPath (ring size and tier inherited from the listener's probe). The
// demux loop owns the receive side; only transmit state is per-session.
type sessionEnv struct {
	txPath
	inbox chan *slab
	start time.Time
	timer *time.Timer
	cur   *slab // the burst being consumed (nil: none); recycled once exhausted
	off   int   // byte cursor inside cur
	pkt   wire.Packet
}

func newSessionEnv(l *serverListener, peer net.Addr, inbox chan *slab) *sessionEnv {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	se := &sessionEnv{
		txPath: txPath{conn: l.conn, raw: l.raw, peer: peer, line: l.line},
		inbox:  inbox,
		start:  time.Now(),
		timer:  t,
	}
	_ = se.setRing(l.tier, l.batch, l.mtu) // a new session has nothing queued to flush
	return se
}

// Now returns the wall-clock time since the session started.
func (se *sessionEnv) Now() time.Duration { return time.Since(se.start) }

// Compute is a no-op: real work takes real time.
func (se *sessionEnv) Compute(time.Duration) {}

// Recv returns the session's next valid packet, walking the current burst
// in place. The decoded packet aliases the burst's slab, which stays valid
// until the following Recv.
func (se *sessionEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if err := se.FlushBatch(); err != nil {
		return nil, err
	}
	for {
		if se.cur == nil || se.off >= int(se.cur.n) {
			se.recycle()
			b, err := se.nextBurst(timeout)
			if err != nil {
				return nil, err
			}
			se.cur = b
		}
		data := splitSeg(se.cur.burst(), int(se.cur.seg), &se.off)
		if derr := wire.DecodeInto(&se.pkt, data); derr != nil {
			continue // corrupted in flight: the checksum did its job
		}
		return &se.pkt, nil
	}
}

// recycle returns the current burst's slab to the pool.
func (se *sessionEnv) recycle() {
	if se.cur != nil {
		se.cur.free()
	}
	se.cur, se.off = nil, 0
}

// nextBurst waits for the demux loop's next burst with core.Env timeout
// semantics.
func (se *sessionEnv) nextBurst(timeout time.Duration) (*slab, error) {
	if timeout < 0 {
		b, ok := <-se.inbox
		if !ok {
			return nil, net.ErrClosed
		}
		return b, nil
	}
	if timeout == 0 {
		select {
		case b, ok := <-se.inbox:
			if !ok {
				return nil, net.ErrClosed
			}
			return b, nil
		default:
			return nil, os.ErrDeadlineExceeded
		}
	}
	se.timer.Reset(timeout)
	select {
	case b, ok := <-se.inbox:
		if !se.timer.Stop() {
			select {
			case <-se.timer.C:
			default:
			}
		}
		if !ok {
			return nil, net.ErrClosed
		}
		return b, nil
	case <-se.timer.C:
		return nil, os.ErrDeadlineExceeded
	}
}
