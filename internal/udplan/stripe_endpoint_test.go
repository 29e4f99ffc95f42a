package udplan

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/session"
)

// A pre-dialed endpoint handed to the fan-out via StripeOptions.Endpoint —
// the one a preceding stat ran on — must carry stripe 0's session instead
// of being thrown away, and the fan-out must own (and close) it afterwards.
func TestStripedPullReusesStatEndpoint(t *testing.T) {
	const total = 256 << 10
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 8
	srv.Source = stripedSource
	var mu sync.Mutex
	peers := make(map[string]bool)
	srv.Done = func(ts session.TransferStats) {
		mu.Lock()
		peers[ts.Peer.String()] = true
		mu.Unlock()
	}
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	local := e.conn.LocalAddr().String()
	cfg := logicalCfg(total)
	out := make([]byte, total)
	res, err := PullStriped(addr, cfg, StripeOptions{
		Streams:  4,
		Endpoint: e,
		Sink:     func(off int, b []byte) { copy(out[off:], b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := core.SeededPayload(int64(total), total, cfg.ChunkSize)
	if !bytes.Equal(out, want) {
		t.Fatal("striped pull over a reused endpoint reassembled a corrupt stream")
	}
	if res.Bytes != total {
		t.Fatalf("pulled %d of %d bytes", res.Bytes, total)
	}

	// The Done hook runs after a session's sender returns, which can be
	// after the client has its last ack: wait for all four stripes.
	settle(func() bool { mu.Lock(); defer mu.Unlock(); return len(peers) >= 4 })
	mu.Lock()
	reused := peers[local]
	mu.Unlock()
	if !reused {
		t.Errorf("pre-dialed endpoint %s never served a stripe session (peers: %v)", local, peers)
	}
	// Ownership transferred: the fan-out closed the endpoint with its own.
	if err := e.conn.SetReadDeadline(time.Time{}); err == nil {
		t.Error("pre-dialed endpoint still open after the fan-out returned")
	}
}
