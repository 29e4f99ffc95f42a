package udplan

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// The REUSEPORT multi-queue server must keep its accounting exact: with two
// demux loops on two kernel-steered sockets and Concurrency=4, eight
// concurrent clients produce exactly eight Served transfers and eight Done
// calls — no double-counting and no racing of the shared hooks across
// loops (this test is in the CI race-detector matrix).
func TestReuseportServedAccounting(t *testing.T) {
	if !reuseportSharding {
		if _, err := ListenReuseport("udp", "127.0.0.1:0", 2); err == nil {
			t.Fatal("ListenReuseport(2) must refuse on platforms without REUSEPORT sharding")
		}
		t.Skip("SO_REUSEPORT multi-queue unsupported on this platform")
	}
	conns, err := ListenReuseport("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Skipf("reuseport listen: %v", err)
	}
	if a, b := conns[0].LocalAddr().String(), conns[1].LocalAddr().String(); a != b {
		t.Fatalf("sibling sockets bound to different addresses: %s vs %s", a, b)
	}
	srv := NewMultiServer(conns...)
	srv.Concurrency = 4
	srv.Batch = 16
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk)), true
	}
	var doneMu sync.Mutex
	doneCount := 0
	srv.Done = func(TransferStats) {
		doneMu.Lock()
		doneCount++
		doneMu.Unlock()
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run() }()
	addr := conns[0].LocalAddr().String()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			size := 24*1024 + i*2048 // distinct sizes → distinct payloads
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			e.SetBatch(16)
			cfg := loopCfg(uint32(900+i), nil, core.Blast, core.Selective)
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
	done := func() int {
		doneMu.Lock()
		defer doneMu.Unlock()
		return doneCount
	}
	settle(func() bool { return srv.Served() >= clients && done() >= clients })
	if got := srv.Served(); got != clients {
		t.Errorf("served = %d, want %d", got, clients)
	}
	doneMu.Lock()
	if doneCount != clients {
		t.Errorf("Done fired %d times, want %d", doneCount, clients)
	}
	doneMu.Unlock()
	srv.Close()
	if err := <-runErr; err != nil {
		t.Errorf("server: %v", err)
	}
}
