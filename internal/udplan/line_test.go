package udplan

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
)

// lineServer starts a sharded server whose socket is modeled as a lineRate
// bytes/s serializing link, serving the given payload.
func lineServer(t *testing.T, payload []byte, lineRate int) string {
	t.Helper()
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 8
	srv.Batch = 8
	srv.LineRate = lineRate
	srv.Source = serveBytes(payload)
	go srv.Run()
	return addr
}

func linePull(addr string, id uint32, payload []byte) (time.Duration, error) {
	e, err := Dial(addr)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	e.SetBatch(8)
	cfg := loopCfg(id, payload, core.Blast, core.GoBackN)
	cfg.Payload = nil
	cfg.Window = 64
	cfg.RetransTimeout = 500 * time.Millisecond
	t0 := time.Now()
	res, err := Pull(e, cfg)
	if err != nil {
		return 0, fmt.Errorf("pull %d: %v", id, err)
	}
	if !res.Completed || !bytes.Equal(res.Data, payload) {
		return 0, fmt.Errorf("pull %d corrupted: completed=%v bytes=%d", id, res.Completed, len(res.Data))
	}
	return time.Since(t0), nil
}

// TestLineRateBounds pins the modeled link's defining property: egress
// cannot beat the line. A 512 KiB object through a 16 MB/s socket takes at
// least ~32ms no matter how fast loopback is, and two concurrent pulls
// SHARE the line — aggregate stays ~16 MB/s, so the pair takes roughly
// twice as long as one, where independent per-session pacing would let them
// finish together.
func TestLineRateBounds(t *testing.T) {
	const rate = 16 << 20
	payload := randomPayload(512<<10, 3)
	ideal := time.Duration(int64(len(payload)) * int64(time.Second) / rate)
	addr := lineServer(t, payload, rate)

	single, err := linePull(addr, 21, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The line is the floor (minus the 64 KiB burst allowance); CPU noise
	// only adds. A generous 60% of ideal catches a line model that stopped
	// engaging without flaking on scheduler jitter.
	if single < ideal*6/10 {
		t.Fatalf("single pull took %v, faster than the %v line permits (ideal %v)", single, ideal*6/10, ideal)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		id := uint32(31 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := linePull(addr, id, payload); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pair := time.Since(t0)
	// Two objects over one shared line need ~2*ideal; 1.4x proves the
	// sessions contended for one link rather than each getting its own.
	if pair < ideal*14/10 {
		t.Fatalf("concurrent pulls took %v together, want >= %v: sessions are not sharing the modeled line", pair, ideal*14/10)
	}
}
