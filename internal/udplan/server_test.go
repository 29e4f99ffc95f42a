package udplan

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// The concurrent server must serve several clients at once: each pull gets
// its own session, payloads are independent and verified, and the Done hook
// fires per transfer.
func TestConcurrentServerParallelPulls(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 4
	srv.Batch = 8
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk)), true
	}
	var doneMu sync.Mutex
	var stats []TransferStats
	srv.Done = func(ts TransferStats) {
		doneMu.Lock()
		stats = append(stats, ts)
		doneMu.Unlock()
	}
	go srv.Run()

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			size := 32*1024 + i*4096 // distinct sizes → distinct payloads
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			e.SetBatch(8)
			cfg := loopCfg(uint32(400+i), nil, core.Blast, core.GoBackN)
			cfg.Bytes = size
			cfg.Window = 32
			res, err := Pull(e, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			want := core.SeededPayload(int64(size), size, 1000)
			if !bytes.Equal(res.Data, want) {
				errs[i] = fmt.Errorf("client %d: corrupted pull", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	settle(func() bool {
		doneMu.Lock()
		defer doneMu.Unlock()
		return srv.Served() >= clients && len(stats) >= clients
	})
	if got := srv.Served(); got != clients {
		t.Errorf("served = %d, want %d", got, clients)
	}
	doneMu.Lock()
	defer doneMu.Unlock()
	if len(stats) != clients {
		t.Errorf("Done fired %d times, want %d", len(stats), clients)
	}
	for _, ts := range stats {
		if ts.Push || ts.Bytes == 0 || ts.Peer == nil || ts.MBps() <= 0 {
			t.Errorf("bad stats: %+v", ts)
		}
	}
}

// Concurrent streaming pushes: SinkStream receives each client's bytes
// incrementally, with the incremental checksum matching the payload.
func TestConcurrentServerStreamingPush(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 3
	type result struct {
		sum   uint16
		bytes int
	}
	results := make(chan result, 8)
	srv.SinkStream = func(r wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		return func(off int, b []byte) {}, func(res core.RecvResult) {
			results <- result{res.Checksum, res.Bytes}
		}, true
	}
	go srv.Run()

	const clients = 3
	payloads := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		payloads[i] = randomPayload(24*1024+i*1000, int64(i)+50)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			if _, err := Push(e, loopCfg(uint32(500+i), payloads[i], core.Blast, core.Selective)); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	wantSums := map[uint16]int{}
	for _, p := range payloads {
		wantSums[wire.Checksum(p)] = len(p)
	}
	for i := 0; i < clients; i++ {
		select {
		case r := <-results:
			if want, ok := wantSums[r.sum]; !ok || want != r.bytes {
				t.Errorf("unexpected streamed result %04x/%d", r.sum, r.bytes)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("missing streamed push result")
		}
	}
}

// Clients beyond the session cap are dropped but recover through REQ
// retransmission: with cap 2 and 4 clients, everyone completes eventually.
func TestConcurrentServerSessionCap(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(7, int(r.Bytes), int(r.Chunk)), true
	}
	go srv.Run()

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			cfg := loopCfg(uint32(600+i), nil, core.Blast, core.GoBackN)
			cfg.Bytes = 64 * 1024
			cfg.Window = 16
			cfg.MaxAttempts = 200 // REQ retries ride this
			if _, err := Pull(e, cfg); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d under cap pressure: %v", i, err)
		}
	}
	settle(func() bool { return srv.Served() >= clients })
	if got := srv.Served(); got != clients {
		t.Errorf("served = %d, want %d", got, clients)
	}
}

// A concurrent server shuts down cleanly when its socket closes, even with
// no traffic, and Run returns nil.
func TestConcurrentServerCleanShutdown(t *testing.T) {
	srv, _ := newLoopbackServer(t)
	srv.Concurrency = 4
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after close")
	}
}

// The concurrent server rejects oversized-chunk requests via the MTU check
// (the client fails fast instead of stalling on truncated datagrams).
func TestConcurrentServerRejectsOversized(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(1, int(r.Bytes), int(r.Chunk)), true
	}
	var logged sync.Once
	rejected := make(chan struct{}, 1)
	srv.Logf = func(format string, args ...any) {
		logged.Do(func() { rejected <- struct{}{} })
	}
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	if err := e.SetMTU(9000); err != nil { // client side can encode it...
		t.Fatal(err)
	}
	cfg := core.Config{
		TransferID:     700,
		Bytes:          16 * 1024,
		ChunkSize:      4000, // ...but the server's default MTU cannot
		Protocol:       core.Blast,
		RetransTimeout: 50 * time.Millisecond,
		MaxAttempts:    3,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   200 * time.Millisecond,
	}
	if _, err := Pull(e, cfg); err == nil {
		t.Error("oversized pull should fail")
	}
	select {
	case <-rejected:
	case <-time.After(2 * time.Second):
		t.Error("server never logged the rejection")
	}
}

// settle waits (bounded) for the server's side of a completed transfer: a
// client returns on the final ack, while its session's accounting (Served,
// then Done) runs on the server's goroutine just after sending it.
func settle(done func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !done() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// slowSource serves the seeded stream a millisecond per chunk, so a transfer
// stays in flight long enough for a test to act while it runs.
func slowSource(r wire.Req) (core.ChunkSource, bool) {
	src := core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk))
	return func(seq int, dst []byte) []byte {
		time.Sleep(time.Millisecond)
		return src(seq, dst)
	}, true
}

// busyCounter decorates a client endpoint to count the BUSY refusals it is
// handed.
type busyCounter struct {
	*Endpoint
	busy int
}

func (b *busyCounter) Recv(timeout time.Duration) (*wire.Packet, error) {
	p, err := b.Endpoint.Recv(timeout)
	if err == nil && p.Type == wire.TypeBusy {
		b.busy++
	}
	return p, err
}

// pullSeeded pulls size seeded bytes through env and checks them.
func pullSeeded(env core.Env, id uint32, size int) error {
	cfg := loopCfg(id, nil, core.Blast, core.GoBackN)
	cfg.Bytes = size
	cfg.Window = 16
	cfg.MaxAttempts = 400
	res, err := core.Request(env, cfg)
	if err != nil {
		return err
	}
	if !bytes.Equal(res.Data, core.SeededPayload(int64(size), size, 1000)) {
		return fmt.Errorf("pull %d corrupted", id)
	}
	return nil
}

// With Concurrency unset the server is the demux loop at a cap of one: while
// a transfer is in flight a second client is told BUSY (not silently
// dropped), retries on the hint and completes once the first has finished;
// and a non-REQ straggler from an unknown source opens no session and cannot
// disturb the transfer.
func TestCapOneBusyAndStragglers(t *testing.T) {
	const size = 200 * 1000 // ~200 ms in flight at a millisecond per chunk
	srv, addr := newLoopbackServer(t)
	srv.RetryAfter = 20 * time.Millisecond
	started := make(chan struct{}, 2) // one send per admitted pull
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		started <- struct{}{}
		return slowSource(r)
	}
	go srv.Run()

	first := make(chan error, 1)
	go func() {
		e, err := Dial(addr)
		if err != nil {
			first <- err
			return
		}
		defer e.Close()
		first <- pullSeeded(e, 801, size)
	}()
	<-started // the first session is admitted and mid-transfer

	// A straggler: a valid non-REQ packet from a socket the server has no
	// session for.
	stranger, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if err := stranger.Send(&wire.Packet{Type: wire.TypeAck, Trans: 801, Seq: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if p, err := stranger.Recv(50 * time.Millisecond); !core.IsTimeout(err) {
		t.Errorf("the straggler was answered: %v, %v", p, err)
	}
	if a := srv.Active(); a != 1 {
		t.Errorf("%d sessions active with one transfer and one straggler, want 1", a)
	}

	e, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	second := &busyCounter{Endpoint: e}
	if err := pullSeeded(second, 802, 8*1000); err != nil {
		t.Fatalf("second client: %v", err)
	}
	if second.busy == 0 {
		t.Error("second client was never told BUSY while the first transfer held the server")
	}
	if err := <-first; err != nil {
		t.Fatalf("first client, disturbed by the straggler or the refusals: %v", err)
	}
	settle(func() bool { return srv.Served() >= 2 })
	if got := srv.Served(); got != 2 {
		t.Errorf("served = %d, want 2", got)
	}
}

// Idle and BeginDrain end Run at a cap of one exactly as at any other cap:
// an idle server returns when the bound expires, and a draining one returns
// once the transfer in flight has completed.
func TestCapOneIdleAndDrain(t *testing.T) {
	wait := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Run did not return", what)
		}
	}

	idle, _ := newLoopbackServer(t)
	idle.Idle = 50 * time.Millisecond
	idleDone := make(chan error, 1)
	go func() { idleDone <- idle.Run() }()
	wait("idle bound", idleDone)

	srv, addr := newLoopbackServer(t)
	started := make(chan struct{}, 1)
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		started <- struct{}{}
		return slowSource(r)
	}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Run() }()
	pull := make(chan error, 1)
	go func() {
		e, err := Dial(addr)
		if err != nil {
			pull <- err
			return
		}
		defer e.Close()
		pull <- pullSeeded(e, 811, 100*1000)
	}()
	<-started
	srv.BeginDrain()
	select {
	case err := <-srvDone:
		t.Fatalf("drain abandoned the transfer in flight: Run returned %v", err)
	case err := <-pull:
		if err != nil {
			t.Fatalf("transfer in flight when the drain began: %v", err)
		}
	}
	wait("drain", srvDone)
	if got := srv.Served(); got != 1 {
		t.Errorf("served = %d, want 1", got)
	}
}

// LineRate models the socket, not a serving mode: it bounds egress at a cap
// of one too.
func TestCapOneLineRate(t *testing.T) {
	const rate = 16 << 20
	payload := randomPayload(512<<10, 4)
	ideal := time.Duration(int64(len(payload)) * int64(time.Second) / rate)
	srv, addr := newLoopbackServer(t)
	srv.LineRate = rate
	srv.Source = serveBytes(payload)
	go srv.Run()
	took, err := linePull(addr, 821, payload)
	if err != nil {
		t.Fatal(err)
	}
	if took < ideal*6/10 {
		t.Fatalf("pull took %v, faster than the %v line permits (ideal %v)", took, ideal*6/10, ideal)
	}
}
