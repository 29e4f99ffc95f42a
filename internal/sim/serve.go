package sim

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// This file adapts the simulator to the substrate interfaces of
// internal/transport, so the shared session layer (internal/session) serves
// many simulated clients exactly as it serves real UDP peers: the demux
// loop runs as one simulated process reading the serving station's
// interface, and each admitted session becomes its own process.
// Everything stays under the kernel's handoff scheduling, so a sharded
// many-client server is deterministic bit for bit — the property the scale
// scenarios (simrun.LoadScenario) and the server-side conformance suite
// rely on.

// Listener implements transport.Listener over one serving station: Accept
// is a source-tagged receive on the station's interface, demux keys are the
// transmitting station's interface address followed by the packet's
// transfer id, and session bodies run as kernel processes. Create it inside
// the demux process (see Serve).
type Listener struct {
	n  *Network
	st *Station
	p  *Proc

	keybuf [addrLen + 4]byte // source address, then transfer id
	last   *Station

	spawned  int
	finished int
	done     Signal
}

// NewListener binds a listener to the serving station and the process that
// will drive its demux loop.
func NewListener(n *Network, st *Station, p *Proc) *Listener {
	return &Listener{n: n, st: st, p: p}
}

// Serve spawns a server process on st and hands run a listener bound to it;
// run typically calls (*session.Server).Run. The returned process completes
// when run returns.
func Serve(n *Network, st *Station, run func(l *Listener)) *Proc {
	return n.K.Go("serve:"+st.Name, func(p *Proc) {
		run(NewListener(n, st, p))
	})
}

// Accept waits up to idle (<= 0: forever) for the next arrival on the
// serving station, from any source.
func (l *Listener) Accept(idle time.Duration) (transport.Inbound, error) {
	timeout := time.Duration(-1)
	if idle > 0 {
		timeout = idle
	}
	pkt, from, err := l.st.recv(l.p, timeout)
	if err != nil {
		return transport.Inbound{}, err
	}
	l.last = from
	copy(l.keybuf[:], from.Addr[:])
	binary.BigEndian.PutUint32(l.keybuf[addrLen:], pkt.Trans)
	return transport.Inbound{Key: l.keybuf[:], Msg: pkt}, nil
}

// ReqOf decodes a simulated arrival as a session-opening request.
func (l *Listener) ReqOf(msg transport.Message) (wire.Req, bool) {
	pkt, ok := msg.(*medPkt)
	if !ok || pkt.Type != wire.TypeReq {
		return wire.Req{}, false
	}
	req, err := wire.DecodeReq(pkt.Payload)
	if err != nil {
		return wire.Req{}, false
	}
	return req, true
}

// Open creates the session conn for the source of the most recent Accept.
func (l *Listener) Open() (transport.Conn, transport.Peer, error) {
	if l.last == nil {
		return nil, nil, fmt.Errorf("sim: no arrival to open a session for")
	}
	return &serverConn{l: l, peer: l.last}, l.last, nil
}

// ReplyBusy sends a best-effort BUSY/RETRY-AFTER refusal to the source of
// the most recent Accept (transport.BusyReplier).
func (l *Listener) ReplyBusy(msg transport.Message, retryAfter time.Duration) error {
	pkt, ok := msg.(*medPkt)
	if !ok || l.last == nil {
		return fmt.Errorf("sim: no refused arrival to reply BUSY to")
	}
	l.st.Send(l.p, l.last, core.Busy(pkt.Trans, retryAfter))
	return nil
}

// Drain blocks the demux process until every spawned session body has
// returned.
func (l *Listener) Drain() {
	l.p.WaitCond(&l.done, -1, func() bool { return l.finished == l.spawned })
}

// serverConn is one admitted session's channel: an inbox of routed packets
// fed by the demux process, consumed by the session's own process.
type serverConn struct {
	l    *Listener
	peer *Station

	inbox  []*medPkt
	head   int
	sig    Signal
	closed bool
}

// Deliver appends a routed arrival to the session inbox. The arrival is the
// packet the serving station lent the demux loop's last Accept; the inbox
// takes it over by reference, and the session's Recv lends it on.
func (c *serverConn) Deliver(msg transport.Message) {
	pkt, ok := msg.(*medPkt)
	if c.closed || !ok || pkt != c.l.st.lent {
		return
	}
	c.l.st.lent = nil
	c.inbox = append(c.inbox, pkt)
	c.sig.Broadcast(c.l.n.K)
}

// Hangup closes the inbox from the demux side.
func (c *serverConn) Hangup() {
	c.closed = true
	c.sig.Broadcast(c.l.n.K)
}

// Spawn runs the session body as its own kernel process, against an Env
// whose receives come from the session inbox and whose sends go out the
// serving station's interface (transmit buffers arbitrate between
// concurrent sessions, like the shared socket does on UDP).
func (c *serverConn) Spawn(name string, body func(env core.Env)) {
	c.l.spawned++
	c.l.n.K.Go(name+":"+c.peer.Name, func(p *Proc) {
		e := &serverEnv{c: c, p: p}
		body(e)
		e.giveBack()
		c.l.finished++
		c.l.done.Broadcast(c.l.n.K)
	})
}

// serverEnv adapts one demuxed session to core.Env. The interface copy of
// each arrival was already charged in the demux process (RecvFrom), so
// inbox consumption itself is free — the interface is paid for exactly once
// per packet, as on the direct path.
type serverEnv struct {
	c    *serverConn
	p    *Proc
	lent *medPkt // the packet the last Recv returned
}

// giveBack pools the packet the last Recv lent.
func (e *serverEnv) giveBack() {
	if e.lent != nil {
		e.c.l.n.putPkt(e.lent)
		e.lent = nil
	}
}

// Now returns the current virtual time.
func (e *serverEnv) Now() time.Duration { return e.p.Now() }

// Compute charges d of CPU time to the serving host.
func (e *serverEnv) Compute(d time.Duration) { e.p.Sleep(d) }

// Send transmits synchronously to the session's peer. A closed serving
// station (a crashed server — see Station.Close) refuses the send with
// net.ErrClosed, so in-flight session bodies die promptly at the crash
// instead of transmitting from beyond the grave.
func (e *serverEnv) Send(pkt *wire.Packet) error {
	if e.c.l.st.Closed() {
		return net.ErrClosed
	}
	e.c.l.st.Send(e.p, e.c.peer, pkt)
	return nil
}

// SendAsync transmits with double-buffered semantics; like Send it fails on
// a closed serving station.
func (e *serverEnv) SendAsync(pkt *wire.Packet) error {
	if e.c.l.st.Closed() {
		return net.ErrClosed
	}
	e.c.l.st.SendAsync(e.p, e.c.peer, pkt)
	return nil
}

// Recv returns the session's next routed packet, with core.Env timeout
// semantics and ownership: the packet is valid until the next Recv. Packets
// already routed are delivered even after a Hangup, like a socket's buffered
// datagrams.
func (e *serverEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	c := e.c
	k := c.l.n.K
	e.giveBack()
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = k.Now() + timeout
	}
	for c.head >= len(c.inbox) {
		if c.closed {
			return nil, net.ErrClosed
		}
		wait := time.Duration(-1)
		if deadline >= 0 {
			wait = deadline - k.Now()
			if wait < 0 {
				return nil, os.ErrDeadlineExceeded
			}
		}
		if e.p.Wait(&c.sig, wait) && c.head >= len(c.inbox) {
			if c.closed {
				return nil, net.ErrClosed
			}
			return nil, os.ErrDeadlineExceeded
		}
	}
	pkt := c.inbox[c.head]
	c.inbox[c.head] = nil
	c.head++
	if c.head == len(c.inbox) {
		c.inbox = c.inbox[:0]
		c.head = 0
	}
	e.lent = pkt
	return &pkt.Packet, nil
}
