package vkernel

import (
	"errors"
	"testing"
	"time"

	"blastlan/internal/params"
)

// echoHandler replies with the request words incremented.
func echoHandler(m Message) Message {
	var r Message
	for w := 0; w < MsgSize/4; w++ {
		r.PutUint32(w, m.Uint32(w)+1)
	}
	return r
}

func TestMessageWords(t *testing.T) {
	var m Message
	m.PutUint32(0, 0xdeadbeef)
	m.PutUint32(7, 42)
	if m.Uint32(0) != 0xdeadbeef || m.Uint32(7) != 42 {
		t.Errorf("word access broken: %x %d", m.Uint32(0), m.Uint32(7))
	}
}

func TestExchangeErrorFree(t *testing.T) {
	c := newCluster(t, Options{})
	c.B.ServeIPC(echoHandler)
	var req Message
	req.PutUint32(0, 10)
	req.PutUint32(3, 99)
	reply, _, err := c.Exchange(c.A, c.B, req, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Uint32(0) != 11 || reply.Uint32(3) != 100 {
		t.Errorf("reply = %d, %d", reply.Uint32(0), reply.Uint32(3))
	}
}

// The exchange survives request and reply loss via retransmission, and the
// server deduplicates retransmitted requests (the handler must not run
// twice for one logical Send).
func TestExchangeUnderLoss(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := newCluster(t, Options{Loss: params.LossModel{PNet: 0.2}, Seed: seed})
		calls := 0
		c.B.ServeIPC(func(m Message) Message {
			calls++
			return echoHandler(m)
		})
		var req Message
		req.PutUint32(0, 7)
		reply, _, err := c.Exchange(c.A, c.B, req, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if reply.Uint32(0) != 8 {
			t.Fatalf("seed %d: bad reply", seed)
		}
		if calls != 1 {
			t.Fatalf("seed %d: handler ran %d times, want 1 (dedup)", seed, calls)
		}
	}
}

func TestExchangeTimesOutWithoutServer(t *testing.T) {
	c := newCluster(t, Options{})
	// No handler registered on B: requests are ignored forever.
	var req Message
	_, _, err := c.Exchange(c.A, c.B, req, time.Millisecond)
	if !errors.Is(err, ErrIPCTimeout) {
		t.Errorf("err = %v, want ErrIPCTimeout", err)
	}
}

// A full V-style interaction: IPC to arrange the transfer, then MoveTo for
// the bulk data — the paper's file-read sequence (§2).
func TestIPCThenMoveTo(t *testing.T) {
	c := newCluster(t, Options{})
	server := c.A.CreateProcess(16*1024, false)
	fill(server.Bytes(), 3)
	client := c.B.CreateProcess(16*1024, true)

	// "Send a message to the file server indicating the starting address
	// of the buffer and its length."
	c.A.ServeIPC(func(m Message) Message {
		var r Message
		r.PutUint32(0, 1) // OK
		r.PutUint32(1, uint32(server.Size()))
		return r
	})
	var req Message
	req.PutUint32(0, uint32(client.PID))
	req.PutUint32(1, 16*1024)
	reply, _, err := c.Exchange(c.B, c.A, req, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Uint32(0) != 1 || reply.Uint32(1) != 16*1024 {
		t.Fatalf("handshake reply wrong: %d %d", reply.Uint32(0), reply.Uint32(1))
	}

	// The transfer itself.
	if _, err := c.MoveTo(server, 0, client, 0, 16*1024, MoveOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, b := range client.Bytes() {
		if b != server.Bytes()[i] {
			t.Fatal("data corrupted")
		}
	}
}

// One IPC exchange costs two ack-sized packets plus handler time:
// 2 × (Ca copy-in + Ta + Ca copy-out + τ) ≈ 2.8 ms on the V preset.
func TestExchangeCost(t *testing.T) {
	c := newCluster(t, Options{})
	c.B.ServeIPC(echoHandler)
	var req Message
	_, elapsed, err := c.Exchange(c.A, c.B, req, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Net.Cost
	want := 2 * (2*m.Ca() + m.Ta() + m.Propagation)
	if elapsed != want {
		t.Errorf("exchange cost %v, want %v", elapsed, want)
	}
}
