package udplan

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"blastlan/internal/core"
)

// slabServer serves seeded pulls on a loopback socket at batch 32 with
// 4 MiB buffers: the configuration whose rings the slab pool recycles.
func slabServer(t *testing.T) string {
	t.Helper()
	srv, addr := newLoopbackServer(t)
	SetConnBuffers(srv.conns[0], 4<<20)
	srv.Batch = 32
	srv.Concurrency = 4
	srv.Source = core.SeededReqSource
	go srv.Run()
	return addr
}

// slabDial dials the server and configures the endpoint the way every
// small-transfer client does.
func slabDial(t *testing.T, addr string) *Endpoint {
	t.Helper()
	e, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSocketBuffers(4 << 20)
	if err := e.SetBatch(32); err != nil {
		t.Fatal(err)
	}
	return e
}

// slabPullCfg is a 256 KiB seeded pull.
func slabPullCfg(id uint32) core.Config {
	cfg := loopCfg(id, nil, core.Blast, core.GoBackN)
	cfg.Bytes = 256 << 10
	cfg.Window = 64
	return cfg
}

// A dial → pull → close cycle returns every ring it drew, on both ends: once
// the pool is warm, a 256 KiB pull allocates its bookkeeping, not its rings.
// Each cycle used to allocate ~661 KiB — the client's four 64 KiB GRO
// buffers, a 64 KiB frame ring on each side and the session's 256 KiB stage,
// all freshly allocated and zeroed.
func TestSmallPullAllocatesNoRings(t *testing.T) {
	if testing.Short() {
		// The race job runs -short, and under -race sync.Pool drops items at
		// random: the allocation count would measure the race detector.
		t.Skip("allocation accounting skipped in -short mode")
	}
	// One P: sync.Pool caches per P, and a slab freed on one P is invisible
	// to a draw on another until it is stolen, so with several Ps the count
	// would also measure where the scheduler happened to run each session.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addr := slabServer(t)
	var sum uint16
	cycle := func(id uint32) {
		e := slabDial(t, addr)
		cfg := slabPullCfg(id)
		cfg.Sink = func(int, []byte) {} // checksummed and discarded
		res, err := Pull(e, cfg)
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", id, err)
		}
		if res.Bytes != cfg.Bytes || res.Checksum != sum {
			t.Fatalf("cycle %d delivered %d bytes with checksum %04x, want %d with %04x",
				id, res.Bytes, res.Checksum, cfg.Bytes, sum)
		}
	}
	sum = core.TransferChecksum(core.SeededPayload(256<<10, 256<<10, 1000))
	for i := uint32(1); i <= 10; i++ {
		cycle(i)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const cycles = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint32(0); i < cycles; i++ {
		cycle(100 + i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d bytes allocated per dial → pull → close cycle", per)
	if per > 64<<10 {
		t.Errorf("a dial → 256 KiB pull → close cycle allocated %d bytes, ceiling %d: a ring is being built afresh", per, 64<<10)
	}
}

// A closed endpoint's slabs go back to the pool, so another endpoint may be
// walking them already: nothing the closed one is asked to do may write into
// a ring. Run under -race: endpoint A is closed, endpoint B is dialed (and
// draws A's slabs), and while B pulls, every method of A is called; B's pull
// must arrive byte for byte.
func TestClosedEndpointNeverTouchesItsRings(t *testing.T) {
	addr := slabServer(t)
	a := slabDial(t, addr)
	cfg := slabPullCfg(1)
	want := core.SeededPayload(int64(cfg.Bytes), cfg.Bytes, cfg.ChunkSize)
	res, err := Pull(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("endpoint A's pull corrupted")
	}
	for i := 0; i < 8; i++ {
		a.Stage(data(uint32(i), "staged"))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := slabDial(t, addr)
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		res, err := Pull(b, slabPullCfg(2))
		if err == nil && !bytes.Equal(res.Data, want) {
			err = fmt.Errorf("endpoint B's pull arrived corrupted")
		}
		done <- err
	}()

	// B's pull runs in its own goroutine; A is poked from this one until it
	// ends, and the test returns only after it has.
	var fault, pullErr error
	for pulling := true; pulling; {
		if fault == nil {
			fault = pokeClosed(a)
		}
		select {
		case pullErr = <-done:
			pulling = false
		default:
		}
	}
	if fault != nil {
		t.Error(fault)
	}
	if pullErr != nil {
		t.Error(pullErr)
	}
}

// pokeClosed calls every method of a closed endpoint and reports the first
// that does not refuse.
func pokeClosed(a *Endpoint) error {
	pkt := data(7, "after close")
	_, recvErr := a.Recv(0)
	_, waitErr := a.Recv(time.Millisecond)
	for _, c := range []struct {
		name string
		err  error
	}{
		{"Send", a.Send(pkt)},
		{"SendAsync", a.SendAsync(pkt)},
		{"FlushBatch", a.FlushBatch()},
		{"Recv(0)", recvErr},
		{"Recv(1ms)", waitErr},
		{"SetBatch", a.SetBatch(8)},
		{"SetMTU", a.SetMTU(4096)},
		{"Close", a.Close()},
	} {
		if !errors.Is(c.err, net.ErrClosed) {
			return fmt.Errorf("%s on a closed endpoint: %v, want net.ErrClosed", c.name, c.err)
		}
	}
	if a.Stage(pkt) || a.Staged() != 0 {
		return fmt.Errorf("a closed endpoint staged a frame, or offers %d for release", a.Staged())
	}
	if err := a.ReleaseStaged(8); err != nil {
		return fmt.Errorf("ReleaseStaged on a closed endpoint: %v", err)
	}
	a.SetBatchLimit(4)
	a.SetPacketGap(0)
	_, _, _ = a.Batch(), a.BatchLimit(), a.FlushUnit()
	return nil
}
