package udplan

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// This file is the UDP substrate's implementation of transport.Listener:
// everything socket- and syscall-specific about serving many clients on one
// socket — recvmmsg demux drains, raw-sockaddr keys, pooled datagram
// copies, per-session goroutines each with its own txPath. The serving
// logic itself (session table, REQ-only admission, handler dispatch) lives
// in internal/session and is shared with the simulator substrate.

// serverListener adapts one shared socket to transport.Listener.
type serverListener struct {
	conn  net.PacketConn
	raw   syscall.RawConn // non-nil when the socket supports raw batched I/O
	mtu   int
	batch int
	tier  Tier       // transmit tier for session frame rings, probed once per socket
	line  *linePacer // modeled egress line rate shared by all sessions (nil: unlimited)
	rx    *rxBatch
	rbuf  []byte
	pool  *sync.Pool

	keybuf   [addrKeyLen]byte
	lastAddr net.Addr // source of the most recent Accept (blocking read)
	lastName []byte   // raw sockaddr of the most recent Accept (batch drain)

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
		rbuf:  make([]byte, mtu),
		pool:  &sync.Pool{New: func() any { b := make([]byte, mtu); return &b }},
	}
	if batch > 1 && l.raw != nil {
		// The demux ring stays plain (no UDP_GRO): session datagrams copy
		// into MTU-sized pooled buffers, which a coalesced superbuffer would
		// overflow. GSO-tier clients still work — the kernel segments an
		// inbound GSO skb for a socket without GRO — so only the transmit
		// side of the server rides the GSO tier.
		l.rx = newRxBatch(batch, mtu, false)
	}
	return l
}

// Accept returns the next datagram on the socket: a batch-drained one if
// pending, otherwise one blocking read followed (when batching) by an
// opportunistic recvmmsg drain of everything else already queued in the
// kernel. The demux key is canonical and allocation-free.
func (l *serverListener) Accept(idle time.Duration) (transport.Inbound, error) {
	var deadline time.Time
	if idle > 0 {
		deadline = time.Now().Add(idle)
	}
	if err := l.conn.SetReadDeadline(deadline); err != nil {
		return transport.Inbound{}, err
	}
	for {
		var (
			data, name []byte
			addr       net.Addr
		)
		if l.rx != nil && l.rx.pending() {
			data, name = l.rx.pop()
		} else {
			n, a, err := l.conn.ReadFrom(l.rbuf)
			if err != nil {
				return transport.Inbound{}, err
			}
			data, addr = l.rbuf[:n], a
			if l.rx != nil {
				l.rx.drain(l.raw)
			}
		}
		if name != nil {
			if !keyFromRaw(&l.keybuf, name) {
				continue
			}
		} else if ua, ok := addr.(*net.UDPAddr); ok {
			keyFromUDP(&l.keybuf, ua)
		} else {
			continue
		}
		l.lastAddr, l.lastName = addr, name
		return transport.Inbound{Key: l.keybuf[:], Msg: data}, nil
	}
}

// ReqOf decodes a datagram as a session-opening request: only a
// checksum-valid REQ qualifies.
func (l *serverListener) ReqOf(msg transport.Message) (wire.Req, bool) {
	data, ok := msg.([]byte)
	if !ok {
		return wire.Req{}, false
	}
	var pkt wire.Packet
	if wire.DecodeInto(&pkt, data) != nil || pkt.Type != wire.TypeReq {
		return wire.Req{}, false
	}
	req, err := wire.DecodeReq(pkt.Payload)
	if err != nil {
		return wire.Req{}, false
	}
	return req, true
}

// Open creates the session conn for the source of the most recent Accept.
func (l *serverListener) Open() (transport.Conn, transport.Peer, error) {
	peer := l.lastAddr
	if peer == nil {
		ua := rawToUDPAddr(l.lastName)
		if ua == nil {
			return nil, nil, fmt.Errorf("udplan: unresolvable raw source address")
		}
		peer = ua
	}
	return &serverConn{l: l, peer: peer, inbox: make(chan dgram, 256)}, peer, nil
}

// ReplyBusy sends a best-effort BUSY/RETRY-AFTER refusal to the source of
// the most recent Accept (transport.BusyReplier). The reply is a single
// unbatched write: refusals are rare by construction (one per refused REQ
// round trip) and must not sit in a frame ring.
func (l *serverListener) ReplyBusy(msg transport.Message, retryAfter time.Duration) error {
	data, ok := msg.([]byte)
	if !ok {
		return fmt.Errorf("udplan: refused arrival is not a datagram")
	}
	var pkt wire.Packet
	if err := wire.DecodeInto(&pkt, data); err != nil {
		return err
	}
	peer := l.lastAddr
	if peer == nil {
		ua := rawToUDPAddr(l.lastName)
		if ua == nil {
			return fmt.Errorf("udplan: unresolvable raw source address")
		}
		peer = ua
	}
	buf, err := core.Busy(pkt.Trans, retryAfter).Encode(nil)
	if err != nil {
		return err
	}
	_, err = l.conn.WriteTo(buf, peer)
	return err
}

// Drain blocks until every session goroutine has returned.
func (l *serverListener) Drain() { l.wg.Wait() }

// AcceptPoll bounds an otherwise-unbounded Accept so the demux loop can
// notice server state changes (BeginDrain) while the socket is idle; a
// read timeout every quarter second costs nothing.
func (l *serverListener) AcceptPoll() time.Duration { return 250 * time.Millisecond }

// dgram is one pooled datagram in flight from the demux loop to a session.
type dgram struct {
	b *[]byte
	n int
}

// serverConn is one admitted session's channel: a buffered inbox of pooled
// datagram copies fed by the demux loop, consumed by the session goroutine.
type serverConn struct {
	l     *serverListener
	peer  net.Addr
	inbox chan dgram
}

// Deliver copies the datagram into a pooled buffer and queues it. A full
// inbox drops — an interface drop; the protocol recovers.
func (c *serverConn) Deliver(msg transport.Message) {
	data, ok := msg.([]byte)
	if !ok {
		return
	}
	bp := c.l.pool.Get().(*[]byte)
	n := copy(*bp, data)
	select {
	case c.inbox <- dgram{bp, n}:
	default:
		c.l.pool.Put(bp) // inbox overflow: an interface drop; the protocol recovers
	}
}

// Hangup closes the inbox from the demux side (the demux loop has stopped).
func (c *serverConn) Hangup() { close(c.inbox) }

// Spawn runs the session body in its own goroutine over a channel-fed Env
// with its own transmit path, and puts whatever the body left queued on the
// wire once it returns.
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
	}()
}

// sessionEnv adapts one demuxed session to core.Env: receives come from the
// demux loop's channel, sends go to the shared socket through the session's
// own txPath (ring size and tier inherited from the listener's probe). The
// demux loop owns the receive side; only transmit state is per-session.
type sessionEnv struct {
	txPath
	inbox chan dgram
	pool  *sync.Pool
	start time.Time
	timer *time.Timer
	cur   *[]byte // current packet's buffer; recycled on the next Recv
	pkt   wire.Packet
}

func newSessionEnv(l *serverListener, peer net.Addr, inbox chan dgram) *sessionEnv {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	se := &sessionEnv{
		txPath: txPath{conn: l.conn, raw: l.raw, peer: peer, line: l.line},
		inbox:  inbox,
		pool:   l.pool,
		start:  time.Now(),
		timer:  t,
	}
	se.setRing(l.tier, l.batch, l.mtu)
	return se
}

// Now returns the wall-clock time since the session started.
func (se *sessionEnv) Now() time.Duration { return time.Since(se.start) }

// Compute is a no-op: real work takes real time.
func (se *sessionEnv) Compute(time.Duration) {}

// Recv returns the session's next valid packet. The decoded packet aliases
// a pooled buffer that stays valid until the following Recv.
func (se *sessionEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if err := se.FlushBatch(); err != nil {
		return nil, err
	}
	for {
		d, err := se.nextDgram(timeout)
		if err != nil {
			return nil, err
		}
		se.recycle()
		se.cur = d.b
		if derr := wire.DecodeInto(&se.pkt, (*d.b)[:d.n]); derr != nil {
			continue // corrupted in flight: the checksum did its job
		}
		return &se.pkt, nil
	}
}

// recycle returns the current packet's buffer to the pool.
func (se *sessionEnv) recycle() {
	if se.cur != nil {
		se.pool.Put(se.cur)
		se.cur = nil
	}
}

// nextDgram waits for the demux loop's next datagram with core.Env timeout
// semantics.
func (se *sessionEnv) nextDgram(timeout time.Duration) (dgram, error) {
	if timeout < 0 {
		d, ok := <-se.inbox
		if !ok {
			return dgram{}, net.ErrClosed
		}
		return d, nil
	}
	if timeout == 0 {
		select {
		case d, ok := <-se.inbox:
			if !ok {
				return dgram{}, net.ErrClosed
			}
			return d, nil
		default:
			return dgram{}, os.ErrDeadlineExceeded
		}
	}
	se.timer.Reset(timeout)
	select {
	case d, ok := <-se.inbox:
		if !se.timer.Stop() {
			select {
			case <-se.timer.C:
			default:
			}
		}
		if !ok {
			return dgram{}, net.ErrClosed
		}
		return d, nil
	case <-se.timer.C:
		return dgram{}, os.ErrDeadlineExceeded
	}
}
