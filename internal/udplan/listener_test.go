package udplan

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// demuxHarness drives a serverListener exactly the way session.Server.Run
// does — Accept, one table lookup per burst, REQ-only admission, Open,
// Spawn, Deliver — but with session bodies the test supplies, so a test can
// watch what each session receives and what its conn holds.
type demuxHarness struct {
	l *serverListener

	mu        sync.Mutex
	conns     map[string]*serverConn // by demux key
	coalesced int                    // bursts that carried more than one datagram
	stopped   chan struct{}
}

func startDemux(l *serverListener, body func(peer net.Addr, env core.Env)) *demuxHarness {
	h := &demuxHarness{l: l, conns: map[string]*serverConn{}, stopped: make(chan struct{})}
	go func() {
		defer close(h.stopped)
		for {
			inb, err := l.Accept(0)
			if err != nil {
				return // the test closed the socket
			}
			h.mu.Lock()
			c := h.conns[string(inb.Key)]
			if inb.Msg.(*slab).datagrams() > 1 {
				h.coalesced++
			}
			h.mu.Unlock()
			if c == nil {
				if _, ok := l.ReqOf(inb.Msg); !ok {
					continue
				}
				conn, peer, err := l.Open()
				if err != nil {
					continue
				}
				c = conn.(*serverConn)
				h.mu.Lock()
				h.conns[string(inb.Key)] = c
				h.mu.Unlock()
				c.Spawn("session", func(env core.Env) { body(peer.(net.Addr), env) })
			}
			c.Deliver(inb.Msg)
		}
	}()
	return h
}

// stop closes the socket under the demux loop, hangs every session up and
// waits for their bodies to return.
func (h *demuxHarness) stop() {
	h.l.conn.Close()
	<-h.stopped
	for _, c := range h.conns {
		c.Hangup()
	}
	h.l.Drain()
}

// seededChunk is data packet seq of a 100-packet transfer trans, n bytes of
// payload seeded by both: the receive parity scripts' unit of traffic.
func seededChunk(trans, seq uint32, n int) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Trans: trans, Seq: seq, Total: 100,
		Payload: core.SeededPayload(int64(trans)<<16|int64(seq), n, n)}
}

func listenUDP(t *testing.T, sockbuf int) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if sockbuf > 0 {
		SetConnBuffers(c, sockbuf)
	}
	return c
}

// The mirror of TestTxParityEndpointVsSession for the receive side: one
// seeded script — superbuffers of equal frames, a control datagram riding a
// burst's short tail and one on its own, two clients interleaved, one
// bit-flipped segment mid-burst, a short FlagLast tail, and a non-REQ burst
// from a source that never announced itself — through the demux listener at
// every tier of the ladder, batched and not. Whatever shape the bursts take
// on the way in (one coalesced superbuffer, or one datagram each), every
// session must see the identical packet sequence: its client's script, in
// order, minus exactly the flipped segment; and the stranger opens nothing.
func TestRxParityAcrossTiers(t *testing.T) {
	for _, tier := range []Tier{TierGSO, TierMmsg, TierWriteTo} {
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("%s/batch%d", tier, batch), func(t *testing.T) {
				l := newServerListener(listenUDP(t, 4<<20), batch, MaxDatagram, tier)
				var mu sync.Mutex
				got := map[string][]*wire.Packet{}
				h := startDemux(l, func(peer net.Addr, env core.Env) {
					for {
						pkt, err := env.Recv(-1)
						if err != nil {
							return
						}
						mu.Lock()
						got[peer.String()] = append(got[peer.String()], pkt.Clone())
						mu.Unlock()
					}
				})

				const flipped = 17
				dial := func() *Endpoint {
					e := NewEndpoint(listenUDP(t, 0), l.conn.LocalAddr())
					e.MaxTier = tier
					e.SetBatch(batch)
					return e
				}
				a, b, stranger := dial(), dial(), dial()
				a.MangleTx = func(p *wire.Packet) params.Mangle {
					if p.Type == wire.TypeData && p.Seq == flipped {
						return params.Mangle{Corrupt: true, CorruptBit: 999}
					}
					return params.Mangle{}
				}
				want := map[string][]*wire.Packet{}
				send := func(e *Endpoint, p *wire.Packet) {
					t.Helper()
					if err := e.Send(p); err != nil {
						t.Fatal(err)
					}
					if e == stranger || (e == a && p.Type == wire.TypeData && p.Seq == flipped) {
						return
					}
					key := e.LocalAddr().String()
					want[key] = append(want[key], p.Clone())
				}
				chunk := seededChunk
				req := func(trans uint32) *wire.Packet {
					return &wire.Packet{Type: wire.TypeReq, Trans: trans,
						Payload: wire.EncodeReq(wire.Req{Bytes: 100_000, Chunk: 1000, Push: true})}
				}

				send(a, req(1))
				send(b, req(2))
				for seq := uint32(0); seq < 40; seq++ { // a full ring, then 8 frames left queued
					send(a, chunk(1, seq, 1000))
				}
				for seq := uint32(0); seq < 20; seq++ {
					send(b, chunk(2, seq, 1000))
				}
				send(a, &wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 40}) // flushes behind a's 8 queued frames: a short tail
				for seq := uint32(0); seq < 12; seq++ {                      // no REQ ever came from here
					send(stranger, chunk(3, seq, 1000))
				}
				send(b, &wire.Packet{Type: wire.TypeNak, Trans: 2, Seq: 20}) // behind b's 20 queued frames
				send(a, &wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 41}) // on its own: a one-datagram burst
				for seq := uint32(40); seq < 99; seq++ {
					send(a, chunk(1, seq, 1000))
					if seq%3 == 0 {
						send(b, chunk(2, seq-20, 1000))
					}
				}
				last := chunk(1, 99, 500)
				last.Flags = wire.FlagLast
				send(a, last)
				for _, e := range []*Endpoint{a, b, stranger} {
					if err := e.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}

				settle(func() bool {
					mu.Lock()
					defer mu.Unlock()
					for key, w := range want {
						if len(got[key]) < len(w) {
							return false
						}
					}
					return true
				})
				// Anything still on its way — there must be nothing — lands
				// before the socket closes.
				time.Sleep(20 * time.Millisecond)
				h.stop()

				if len(h.conns) != 2 {
					t.Errorf("%d sessions opened, want 2: the unannounced source must open none", len(h.conns))
				}
				for key, w := range want {
					g := got[key]
					if len(g) != len(w) {
						t.Errorf("session %s saw %d packets, want %d (only the flipped segment may go missing)", key, len(g), len(w))
						continue
					}
					for i := range w {
						if g[i].Type != w[i].Type || g[i].Seq != w[i].Seq || g[i].Trans != w[i].Trans ||
							g[i].Flags != w[i].Flags || !bytes.Equal(g[i].Payload, w[i].Payload) {
							t.Fatalf("session %s packet %d: got type %d seq %d, want type %d seq %d",
								key, i, g[i].Type, g[i].Seq, w[i].Type, w[i].Seq)
						}
					}
				}
				if got[stranger.LocalAddr().String()] != nil {
					t.Error("a session saw the unannounced source's packets")
				}
				if d := l.drops.Load(); d != 0 {
					t.Errorf("%d datagrams dropped on full inboxes", d)
				}
				if l.gro && l.tier < TierGSO {
					t.Errorf("tier %s listener receives coalesced", l.tier)
				}
				if l.gro && h.coalesced == 0 {
					t.Error("a GRO listener fed GSO superbuffers never saw a coalesced burst")
				}
				if !l.gro && h.coalesced != 0 {
					t.Errorf("%d coalesced bursts on a socket without GRO", h.coalesced)
				}
			})
		}
	}
}

// 8 MB pushes across blast windows, from well inside the receiver's
// buffering to the whole transfer as one blast. A window the session inbox
// can hold whole — the budget is the receive buffer the kernel granted, so
// how many that is depends on the host — must not lose a single datagram to
// a full inbox (at the parent of this test's commit every window from 300
// up overflowed the 256-entry inbox: the "default push storm"). A larger one
// is the paper's §3.1.3 overrun and may; it must still arrive intact.
func TestPushWindowSweepNoInboxDrops(t *testing.T) {
	const size, batch = 8 << 20, 32
	payload := randomPayload(size, 5)
	conn := listenUDP(t, 4<<20)
	srv := NewServer(conn)
	srv.Concurrency = 2
	srv.Batch = batch
	var mu sync.Mutex
	var sums []uint16
	srv.SinkStream = func(wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		return func(int, []byte) {}, func(res core.RecvResult) {
			mu.Lock()
			defer mu.Unlock()
			if res.Completed && res.Bytes == size {
				sums = append(sums, res.Checksum)
			}
		}, true
	}
	go srv.Run()

	// What one session's inbox is sure to hold, in datagrams: the budget in
	// MTU slabs, or in superbuffer slabs of one client ring each.
	budget := inboxBudget(rawConnOf(conn), MaxDatagram)
	holds := min(budget/MaxDatagram, budget/groBufBytes*batch)
	strict := 0
	for i, window := range []int{128, 300, 512, 2048, 4096, 0} {
		e, err := Dial(conn.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		e.SetSocketBuffers(4 << 20)
		e.SetBatch(batch)
		cfg := loopCfg(uint32(i+1), payload, core.Blast, core.GoBackN)
		cfg.Window = window
		before := srv.InboxDrops()
		res, err := Push(e, cfg)
		e.Close()
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if fits := window > 0 && window+batch <= holds; fits {
			strict++
			if d := srv.InboxDrops() - before; d != 0 {
				t.Errorf("window %d of an inbox holding %d: %d datagrams dropped on a full session inbox (%d packets sent, %d retransmitted)",
					window, holds, d, res.DataPackets, res.Retransmits)
			}
		}
		settle(func() bool { mu.Lock(); defer mu.Unlock(); return len(sums) == i+1 })
	}
	if strict == 0 {
		t.Errorf("a %d-byte receive buffer is too small for even the 128-packet window", budget)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, sum := range sums {
		if want := core.TransferChecksum(payload); sum != want {
			t.Errorf("push %d arrived with checksum %04x, want %04x", i, sum, want)
		}
	}
	if len(sums) != 6 {
		t.Errorf("%d of 6 pushes completed on the server", len(sums))
	}
}

// A session that stops consuming while its peer keeps sending holds at most
// the inbox's byte budget — the receive buffer the kernel granted the socket
// — whatever the slab size, and what does not fit is counted, not silently
// lost. Run on a socket left at the default buffer (plain datagrams in
// MTU-sized slabs) and on one raised to 4 MiB (coalesced superbuffers in
// 64 KiB slabs where the kernel has UDP_GRO).
func TestSessionInboxHoldsAtMostTheByteBudget(t *testing.T) {
	for _, sockbuf := range []int{0, 4 << 20} {
		t.Run(fmt.Sprintf("sockbuf%d", sockbuf), func(t *testing.T) {
			conn := listenUDP(t, sockbuf)
			l := newServerListener(conn, 32, MaxDatagram, TierAuto)
			budget := inboxBudget(l.raw, MaxDatagram)
			slab := rxBufSize(MaxDatagram, l.gro)
			// The client's rings are drawn before counting starts: it may
			// share a slab size with the demux ring.
			e := NewEndpoint(listenUDP(t, 0), conn.LocalAddr())
			e.SetBatch(32)
			var slabs int // slabs the pool had to make during the flood
			var pmu sync.Mutex
			pool := l.rx.pool
			inner := pool.New
			pool.New = func() any {
				pmu.Lock()
				slabs++
				pmu.Unlock()
				return inner()
			}
			defer func() { pool.New = inner }()
			release := make(chan struct{})
			h := startDemux(l, func(_ net.Addr, env core.Env) {
				if _, err := env.Recv(-1); err != nil { // the REQ
					return
				}
				<-release // a sink that blocks
				for {
					if _, err := env.Recv(-1); err != nil {
						return
					}
				}
			})

			if err := e.Send(&wire.Packet{Type: wire.TypeReq, Trans: 1,
				Payload: wire.EncodeReq(wire.Req{Bytes: 1 << 30, Chunk: 1000, Push: true})}); err != nil {
				t.Fatal(err)
			}
			// Flood in steps, letting the demux loop keep up so the kernel's
			// own buffer is not what overflows.
			chunk := make([]byte, 1000)
			flood := 3 * (budget / slab) // bursts: whole client rings on a GRO socket
			if l.gro {
				flood *= 32
			}
			for seq := 0; seq < flood; seq++ {
				if err := e.Send(&wire.Packet{Type: wire.TypeData, Trans: 1, Seq: uint32(seq), Payload: chunk}); err != nil {
					t.Fatal(err)
				}
				if seq%64 == 63 {
					time.Sleep(50 * time.Microsecond)
				}
			}
			if err := e.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			settle(func() bool { return l.drops.Load() > 0 })
			time.Sleep(20 * time.Millisecond)

			h.mu.Lock()
			var c *serverConn
			for _, c = range h.conns {
			}
			h.mu.Unlock()
			if c == nil {
				t.Fatal("the flooding peer's REQ opened no session")
			}
			if held := len(c.inbox) * slab; held > budget {
				t.Errorf("inbox holds %d bytes of slabs, budget %d", held, budget)
			}
			if cap(c.inbox)*slab > budget {
				t.Errorf("inbox can queue %d slabs of %d bytes, over the %d-byte budget", cap(c.inbox), slab, budget)
			}
			if len(c.inbox) != cap(c.inbox) {
				t.Errorf("inbox holds %d of %d bursts after a flood of %d datagrams", len(c.inbox), cap(c.inbox), flood)
			}
			if l.drops.Load() == 0 {
				t.Error("the overflow was not counted")
			}
			// Ring slots, queued bursts, the one the session is consuming:
			// nothing else may have been drawn from the pool.
			pmu.Lock()
			made := slabs
			pmu.Unlock()
			if most := len(l.rx.bufs) + cap(c.inbox) + 1; made > most {
				t.Errorf("pool made %d slabs, want at most %d (ring + inbox + one in hand)", made, most)
			}
			close(release)
			h.stop()
		})
	}
}

var _ transport.Listener = (*serverListener)(nil)
