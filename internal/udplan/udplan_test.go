package udplan

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// newLoopbackServer starts a Server on an ephemeral loopback socket, or
// skips the test when sockets are unavailable in the environment.
func newLoopbackServer(t *testing.T) (*Server, string) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	s := NewServer(conn)
	return s, conn.LocalAddr().String()
}

func randomPayload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// serveBytes is a pull handler serving payload, whole, to every request
// for exactly its length.
func serveBytes(payload []byte) func(wire.Req) (core.ChunkSource, bool) {
	return func(r wire.Req) (core.ChunkSource, bool) {
		if int(r.Bytes) != len(payload) || r.Chunk == 0 {
			return nil, false
		}
		chunk := int(r.Chunk)
		return func(seq int, _ []byte) []byte {
			return payload[seq*chunk : min((seq+1)*chunk, len(payload))]
		}, true
	}
}

// pushInto is a push handler that assembles each push and hands the bytes
// of every completed one to got.
func pushInto(got chan<- []byte) func(wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
	return func(r wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		buf := make([]byte, r.Bytes)
		return func(off int, b []byte) { copy(buf[off:], b) }, func(res core.RecvResult) {
			if res.Completed {
				got <- buf
			}
		}, true
	}
}

// quick transfer config over loopback: tight timeouts, bounded attempts,
// so failures surface fast.
func loopCfg(id uint32, payload []byte, p core.Protocol, s core.Strategy) core.Config {
	return core.Config{
		TransferID:     id,
		Bytes:          len(payload),
		ChunkSize:      1000,
		Protocol:       p,
		Strategy:       s,
		RetransTimeout: 80 * time.Millisecond,
		MaxAttempts:    60,
		Linger:         200 * time.Millisecond,
		ReceiverIdle:   2 * time.Second,
		Payload:        payload,
	}
}

func TestPullOverLoopback(t *testing.T) {
	payload := randomPayload(64*1024, 1)
	srv, addr := newLoopbackServer(t)
	srv.Source = serveBytes(payload)
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	cfg := loopCfg(7, payload, core.Blast, core.GoBackN)
	cfg.Payload = nil // the puller has no data; it receives
	res, err := Pull(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !bytes.Equal(res.Data, payload) {
		t.Fatalf("pull corrupted: completed=%v bytes=%d", res.Completed, len(res.Data))
	}
	if res.Checksum != core.TransferChecksum(payload) {
		t.Error("checksum mismatch")
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("server: %v", err)
	}
	if srv.Served() != 1 {
		t.Errorf("served = %d", srv.Served())
	}
}

func TestPushOverLoopback(t *testing.T) {
	payload := randomPayload(32*1024, 2)
	srv, addr := newLoopbackServer(t)
	got := make(chan []byte, 1)
	srv.SinkStream = pushInto(got)
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	res, err := Push(e, loopCfg(9, payload, core.Blast, core.Selective))
	if err != nil {
		t.Fatal(err)
	}
	if res.DataPackets == 0 {
		t.Error("no packets sent")
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Error("push corrupted data")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never delivered the push")
	}
}

// All three protocol classes over real sockets.
func TestAllProtocolsOverLoopback(t *testing.T) {
	for _, p := range []core.Protocol{core.StopAndWait, core.SlidingWindow, core.Blast} {
		payload := randomPayload(8*1024, int64(p))
		srv, addr := newLoopbackServer(t)
		got := make(chan []byte, 1)
		srv.SinkStream = pushInto(got)
		go srv.Run()

		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		if _, err := Push(e, loopCfg(uint32(p)+1, payload, p, core.GoBackN)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		select {
		case data := <-got:
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v: corrupted", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: timed out", p)
		}
		e.Close()
	}
}

// Injected loss on a lossless loopback: every strategy must still deliver.
func TestRecoveryUnderInjectedLoss(t *testing.T) {
	for _, s := range []core.Strategy{core.FullNoNak, core.FullNak, core.GoBackN, core.Selective} {
		payload := randomPayload(16*1024, int64(s))
		srv, addr := newLoopbackServer(t)
		got := make(chan []byte, 1)
		srv.SinkStream = pushInto(got)
		go srv.Run()

		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		// 5 % loss in both directions, deterministic.
		e.MangleTx = SeededDrop(0.05, int64(s)*2+1)
		e.MangleRx = SeededDrop(0.05, int64(s)*2+2)
		if _, err := Push(e, loopCfg(uint32(s)+100, payload, core.Blast, s)); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		select {
		case data := <-got:
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v: corrupted under loss", s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: timed out", s)
		}
		e.Close()
	}
}

// A server must survive serving several transfers in sequence.
func TestServerServesSequentially(t *testing.T) {
	payload := randomPayload(4*1024, 5)
	srv, addr := newLoopbackServer(t)
	srv.Source = serveBytes(payload)
	go srv.Run()

	for i := 0; i < 3; i++ {
		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		cfg := loopCfg(uint32(200+i), payload, core.Blast, core.GoBackN)
		cfg.Payload = nil
		res, err := Pull(e, cfg)
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("pull %d corrupted", i)
		}
		e.Close()
	}
	settle(func() bool { return srv.Served() >= 3 })
	if srv.Served() != 3 {
		t.Errorf("served = %d, want 3", srv.Served())
	}
}

// The server rejects requests it has no handler or data for; the client
// gives up cleanly rather than hanging.
func TestServerRejectsUnknown(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Source = func(wire.Req) (core.ChunkSource, bool) { return nil, false }
	srv.Idle = 2 * time.Second
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	cfg := core.Config{
		TransferID:     300,
		Bytes:          1024,
		Protocol:       core.Blast,
		RetransTimeout: 30 * time.Millisecond,
		MaxAttempts:    3,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   100 * time.Millisecond,
	}
	if _, err := Pull(e, cfg); err == nil {
		t.Error("expected pull of unknown data to fail")
	}
}

// An endpoint talks to exactly one peer: it keeps it, times out on a
// silent socket, and skips valid datagrams from any other source — with
// batching off and on.
func TestEndpointFiltersOnPeer(t *testing.T) {
	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			conn, peer, stranger := listenUDP(t, 0), listenUDP(t, 0), listenUDP(t, 0)

			e := NewEndpoint(conn, peer.LocalAddr())
			e.SetBatch(batch)
			if e.peer.String() != peer.LocalAddr().String() {
				t.Errorf("peer = %v, want %v", e.peer, peer.LocalAddr())
			}
			if _, err := e.Recv(10 * time.Millisecond); !core.IsTimeout(err) {
				t.Errorf("recv on silent socket: %v", err)
			}
			buf, _ := (&wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 9}).Encode(nil)
			stranger.WriteTo(buf, conn.LocalAddr())
			if pkt, err := e.Recv(50 * time.Millisecond); !core.IsTimeout(err) {
				t.Errorf("a stranger's datagram was delivered: %v, %v", pkt, err)
			}
			peer.WriteTo(buf, conn.LocalAddr())
			if pkt, err := e.Recv(2 * time.Second); err != nil || pkt.Seq != 9 {
				t.Errorf("the peer's datagram: %v, %v", pkt, err)
			}
		})
	}
}

// A wait whose deadline has already expired still reads a datagram that is
// queued: Go's poller reports such a deadline without reading, and a
// zero-timeout poll (sliding window's between sends) used to miss every
// ack that way — batching off and on.
func TestEndpointExpiredWaitReadsQueued(t *testing.T) {
	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			conn, peer := listenUDP(t, 0), listenUDP(t, 0)
			e := NewEndpoint(conn, peer.LocalAddr())
			e.SetBatch(batch)
			if _, err := e.Recv(0); !core.IsTimeout(err) {
				t.Fatalf("poll of a silent socket: %v", err)
			}
			buf, _ := (&wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 9}).Encode(nil)
			peer.WriteTo(buf, conn.LocalAddr())
			time.Sleep(20 * time.Millisecond) // loopback has queued it by now
			if pkt, err := e.Recv(0); err != nil || pkt.Seq != 9 {
				t.Errorf("poll with a datagram queued: %v, %v", pkt, err)
			}
		})
	}
}

// The client mirror of TestRxParityAcrossTiers: one seeded script — GSO
// superbuffers of equal frames, a control datagram riding a burst's short
// tail and one on its own, one bit-flipped segment mid-burst, a short
// FlagLast tail, and a stranger's bursts interleaved — received by an
// Endpoint at every tier of the ladder, batched and not. Whatever shape the
// messages take on the way in (one coalesced superbuffer, or one datagram
// each), every row must see the identical packet sequence: the peer's
// script, in order, minus exactly the flipped segment, and nothing from the
// stranger.
func TestEndpointRxParityAcrossTiers(t *testing.T) {
	for _, tier := range []Tier{TierGSO, TierMmsg, TierWriteTo} {
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("%s/batch%d", tier, batch), func(t *testing.T) {
				conn := listenUDP(t, 4<<20)
				peerConn, strangerConn := listenUDP(t, 0), listenUDP(t, 0)
				e := NewEndpoint(conn, peerConn.LocalAddr())
				e.MaxTier = tier
				e.SetBatch(batch)
				// Both senders ride the best tier the socket has, so the
				// script leaves as superbuffers whatever the receiver is.
				peer, stranger := NewEndpoint(peerConn, conn.LocalAddr()), NewEndpoint(strangerConn, conn.LocalAddr())
				peer.SetBatch(32)
				stranger.SetBatch(32)

				const flipped = 17
				peer.MangleTx = func(p *wire.Packet) params.Mangle {
					if p.Type == wire.TypeData && p.Seq == flipped {
						return params.Mangle{Corrupt: true, CorruptBit: 999}
					}
					return params.Mangle{}
				}
				var want []*wire.Packet
				send := func(s *Endpoint, p *wire.Packet) {
					t.Helper()
					if err := s.Send(p); err != nil {
						t.Fatal(err)
					}
					if s == peer && !(p.Type == wire.TypeData && p.Seq == flipped) {
						want = append(want, p.Clone())
					}
				}
				chunk := seededChunk
				strangerBurst := func(from uint32) {
					t.Helper()
					for seq := from; seq < from+12; seq++ {
						send(stranger, chunk(1, seq, 1000)) // the peer's own transfer id: only the source tells them apart
					}
					if err := stranger.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}

				for seq := uint32(0); seq < 40; seq++ { // a full ring, then 8 frames left queued
					send(peer, chunk(1, seq, 1000))
				}
				send(peer, &wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 40}) // flushes behind the 8 queued frames: a short tail
				strangerBurst(0)
				send(peer, &wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 41}) // on its own: a one-datagram message
				for seq := uint32(40); seq < 99; seq++ {
					send(peer, chunk(1, seq, 1000))
					if seq == 70 {
						strangerBurst(40)
					}
				}
				last := chunk(1, 99, 500)
				last.Flags = wire.FlagLast
				send(peer, last)

				coalesced := false
				for i := range want {
					g, err := e.Recv(2 * time.Second)
					if err != nil {
						t.Fatalf("packet %d of %d: %v", i, len(want), err)
					}
					coalesced = coalesced || e.seg > 0
					w := want[i]
					if g.Type != w.Type || g.Seq != w.Seq || g.Trans != w.Trans ||
						g.Flags != w.Flags || !bytes.Equal(g.Payload, w.Payload) {
						t.Fatalf("packet %d: got type %d seq %d, want type %d seq %d", i, g.Type, g.Seq, w.Type, w.Seq)
					}
				}
				if pkt, err := e.Recv(50 * time.Millisecond); !core.IsTimeout(err) {
					t.Errorf("after the script: %v, %v; want silence", pkt, err)
				}
				if e.GRO() != coalesced {
					t.Errorf("GRO %v, but a coalesced message arrived: %v", e.GRO(), coalesced)
				}
			})
		}
	}
}

// Malformed datagrams must be skipped, not returned as errors.
func TestMalformedDatagramsIgnored(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer conn.Close()
	sender, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer sender.Close()

	e := NewEndpoint(conn, sender.LocalAddr())
	go func() {
		sender.WriteTo([]byte("garbage that is not a packet"), conn.LocalAddr())
		pkt := &wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 5}
		buf, _ := pkt.Encode(nil)
		sender.WriteTo(buf, conn.LocalAddr())
	}()
	pkt, err := e.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != wire.TypeAck || pkt.Seq != 5 {
		t.Errorf("got %v", pkt)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("not-an-address:xyz"); err == nil {
		t.Error("expected resolve error")
	}
}
