package udplan

import (
	"bytes"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// pipe builds two connected endpoints on loopback sockets.
func pipe(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Skipf("no UDP loopback available: %v", err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	ea := NewEndpoint(a, b.LocalAddr())
	eb := NewEndpoint(b, a.LocalAddr())
	return ea, eb
}

func data(seq uint32, payload string) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Trans: 1, Seq: seq, Total: 8,
		Payload: []byte(payload)}
}

// A Tx hold of depth 2 must deliver the held datagram after two later writes
// have overtaken it.
func TestMangleTxReorder(t *testing.T) {
	ea, eb := pipe(t)
	ea.MangleTx = func(p *wire.Packet) params.Mangle {
		if p.Seq == 0 {
			return params.Mangle{Hold: 2}
		}
		return params.Mangle{}
	}
	for i := 0; i < 4; i++ {
		if err := ea.Send(data(uint32(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	var order []uint32
	for i := 0; i < 4; i++ {
		pkt, err := eb.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, pkt.Seq)
	}
	want := []uint32{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", order, want)
		}
	}
}

// A held Tx datagram must be flushed when the sender turns to listen, not
// lost.
func TestMangleTxHoldFlushesOnRecv(t *testing.T) {
	ea, eb := pipe(t)
	ea.MangleTx = func(p *wire.Packet) params.Mangle { return params.Mangle{Hold: 10} }
	if err := ea.Send(data(0, "held")); err != nil {
		t.Fatal(err)
	}
	// Nothing overtakes; the sender turning to listen drains the queue.
	if _, err := ea.Recv(10 * time.Millisecond); !core.IsTimeout(err) {
		t.Fatalf("recv: %v", err)
	}
	pkt, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Seq != 0 || string(pkt.Payload) != "held" {
		t.Errorf("got %v", pkt)
	}
}

// Rx holds reorder on the receive side; a read timeout releases pending
// holds as late arrivals instead of a deadline.
func TestMangleRxReorderAndTimeoutFlush(t *testing.T) {
	ea, eb := pipe(t)
	eb.MangleRx = func(p *wire.Packet) params.Mangle {
		if p.Seq == 0 {
			return params.Mangle{Hold: 1}
		}
		return params.Mangle{}
	}
	if err := ea.Send(data(0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := ea.Send(data(1, "b")); err != nil {
		t.Fatal(err)
	}
	p1, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Seq != 1 || p2.Seq != 0 {
		t.Errorf("order = %d,%d, want 1,0", p1.Seq, p2.Seq)
	}

	// A hold that nothing overtakes surfaces on read timeout.
	if err := ea.Send(data(2, "late")); err != nil {
		t.Fatal(err)
	}
	eb.MangleRx = func(p *wire.Packet) params.Mangle { return params.Mangle{Hold: 5} }
	pkt, err := eb.Recv(300 * time.Millisecond)
	if err != nil {
		t.Fatalf("held packet lost to the deadline: %v", err)
	}
	if pkt.Seq != 2 {
		t.Errorf("got seq %d, want 2", pkt.Seq)
	}
}

// Tx corruption mangles the real datagram: the peer's checksum rejects it,
// so it behaves as a loss and never surfaces.
func TestMangleCorruptionRejectedByPeer(t *testing.T) {
	ea, eb := pipe(t)
	ea.MangleTx = func(p *wire.Packet) params.Mangle {
		if p.Seq == 0 {
			return params.Mangle{Corrupt: true, CorruptBit: 77}
		}
		return params.Mangle{}
	}
	if err := ea.Send(data(0, "doomed")); err != nil {
		t.Fatal(err)
	}
	if err := ea.Send(data(1, "fine")); err != nil {
		t.Fatal(err)
	}
	pkt, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Seq != 1 {
		t.Errorf("corrupted packet survived: got seq %d", pkt.Seq)
	}
	// Rx-side corruption: judged after decode, re-decoded after the flip.
	eb.MangleRx = func(p *wire.Packet) params.Mangle {
		if p.Seq == 2 {
			return params.Mangle{Corrupt: true, CorruptBit: 3}
		}
		return params.Mangle{}
	}
	if err := ea.Send(data(2, "doomed too")); err != nil {
		t.Fatal(err)
	}
	if err := ea.Send(data(3, "fine too")); err != nil {
		t.Fatal(err)
	}
	pkt, err = eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Seq != 3 {
		t.Errorf("rx-corrupted packet survived: got seq %d", pkt.Seq)
	}
}

// Duplication delivers the datagram twice on both sides.
func TestMangleDuplicate(t *testing.T) {
	ea, eb := pipe(t)
	ea.MangleTx = func(p *wire.Packet) params.Mangle { return params.Mangle{Duplicate: true} }
	if err := ea.Send(data(5, "twice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		pkt, err := eb.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Seq != 5 || string(pkt.Payload) != "twice" {
			t.Errorf("copy %d: %v", i, pkt)
		}
	}
	ea.MangleTx = nil
	eb.MangleRx = func(p *wire.Packet) params.Mangle { return params.Mangle{Duplicate: true} }
	if err := ea.Send(data(6, "again")); err != nil {
		t.Fatal(err)
	}
	a, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seq != 6 || b.Seq != 6 {
		t.Errorf("rx duplicate: %v %v", a, b)
	}
	if &a.Payload[0] == &b.Payload[0] {
		t.Error("rx duplicate aliases the original")
	}
}

// A full transfer with a seeded adversary on the client endpoint (both
// directions) must complete with intact payload — the udplan half of the
// cross-substrate acceptance scenario.
func TestPushUnderSeededAdversary(t *testing.T) {
	adv := params.Adversary{
		Loss:          params.LossModel{PNet: 0.02},
		ReorderProb:   0.05,
		ReorderDepth:  2,
		DuplicateProb: 0.03,
		CorruptProb:   0.02,
		JitterMax:     200 * time.Microsecond,
	}
	for _, s := range []core.Strategy{core.FullNoNak, core.FullNak, core.GoBackN, core.Selective} {
		payload := randomPayload(16*1024, int64(s)+700)
		srv, addr := newLoopbackServer(t)
		got := make(chan []byte, 1)
		srv.SinkStream = pushInto(got)
		go srv.Run()

		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		if err := e.SetAdversary(adv, int64(s)+1); err != nil {
			t.Fatal(err)
		}
		if _, err := Push(e, loopCfg(uint32(s)+400, payload, core.Blast, s)); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		select {
		case data := <-got:
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v: corrupted under adversary", s)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%v: timed out", s)
		}
		e.Close()
	}
}
