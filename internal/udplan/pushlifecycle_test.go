package udplan

import (
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/store"
	"blastlan/internal/wire"
)

// doneRecorder collects FileSink.OnDone invocations for assertions.
type doneRecorder struct {
	mu    sync.Mutex
	calls []doneCall
	ch    chan doneCall
}

type doneCall struct {
	path string
	res  core.RecvResult
	kept bool
}

func newDoneRecorder() *doneRecorder {
	return &doneRecorder{ch: make(chan doneCall, 8)}
}

func (d *doneRecorder) hook(path string, res core.RecvResult, kept bool) {
	c := doneCall{path, res, kept}
	d.mu.Lock()
	d.calls = append(d.calls, c)
	d.mu.Unlock()
	d.ch <- c
}

func (d *doneRecorder) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.calls)
}

// waitDone blocks for the next completion or fails the test.
func (d *doneRecorder) waitDone(t *testing.T, timeout time.Duration) doneCall {
	t.Helper()
	select {
	case c := <-d.ch:
		return c
	case <-time.After(timeout):
		t.Fatal("push completion callback never fired")
		panic("unreachable")
	}
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// A client that vanishes mid-push must not leak daemon resources: the
// receiver idles out, the completion callback fires exactly once with
// Completed=false, and the partial transfer-NNNN.bin is removed. This is
// the regression test for the push-path resource leak (an aborted push
// used to leave the open file and its partial bytes behind).
func TestPushAbortDiscardsPartialFile(t *testing.T) {
	dir := t.TempDir()
	rec := newDoneRecorder()
	sink := &store.FileSink{Dir: dir, OnDone: rec.hook, Logf: t.Logf}

	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.SinkStream = sink.SinkStream
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}

	// Announce a 64-chunk push with a tight retransmission interval (the
	// server derives its receiver-idle bound from it), then send only the
	// first three chunks — no FlagLast — and hang up.
	const chunk = 1024
	req := wire.Req{
		Bytes:    64 * chunk,
		Chunk:    chunk,
		Strategy: uint8(core.Selective),
		Protocol: uint8(core.Blast),
		Push:     true,
		Window:   64,
		TrMicros: 20_000, // 20ms: server waits 8*20ms+2s before giving up
	}
	const trans = 4242
	if err := e.Send(&wire.Packet{Type: wire.TypeReq, Trans: trans, Payload: wire.EncodeReq(req)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recv(2 * time.Second); err != nil {
		t.Fatalf("no go-ahead: %v", err)
	}
	payload := make([]byte, chunk)
	for i := range payload {
		payload[i] = byte(i)
	}
	for seq := 0; seq < 3; seq++ {
		if err := e.Send(&wire.Packet{Type: wire.TypeData, Trans: trans, Seq: uint32(seq), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the datagrams time to land before abandoning the transfer, so
	// the sink really has a partial file to discard.
	time.Sleep(100 * time.Millisecond)
	e.Close()

	c := rec.waitDone(t, 10*time.Second)
	if c.res.Completed {
		t.Error("aborted push reported Completed=true")
	}
	if c.kept {
		t.Errorf("aborted push kept file %s", c.path)
	}
	if c.res.Bytes == 0 {
		t.Error("no partial bytes recorded; the abort path was never exercised")
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Errorf("partial file left behind: %v", names)
	}
	// Exactly once: no second invocation trails in.
	time.Sleep(200 * time.Millisecond)
	if n := rec.count(); n != 1 {
		t.Errorf("completion callback fired %d times, want 1", n)
	}
}

// Force-closing the server mid-push (shutdown with a session in flight)
// must run the same lifecycle: the hung-up session's receiver aborts, the
// completion callback fires exactly once with Completed=false, and the
// partial file is discarded.
func TestPushForceCloseDiscardsPartialFile(t *testing.T) {
	dir := t.TempDir()
	rec := newDoneRecorder()
	sink := &store.FileSink{Dir: dir, OnDone: rec.hook, Logf: t.Logf}

	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	firstChunk := make(chan struct{})
	var once sync.Once
	srv.SinkStream = func(r wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		s, done, ok := sink.SinkStream(r)
		if !ok {
			return nil, nil, false
		}
		return func(off int, b []byte) {
			s(off, b)
			once.Do(func() { close(firstChunk) })
		}, done, true
	}
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run() }()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	cfg := loopCfg(4243, randomPayload(256*1024, 99), core.Blast, core.Selective)
	cfg.MaxAttempts = 3
	// A slow source keeps the push under way while the server is killed.
	payload := cfg.Payload
	cfg.Payload, cfg.Source = nil, func(seq int, _ []byte) []byte {
		time.Sleep(2 * time.Millisecond)
		return payload[seq*1000 : min(seq*1000+1000, len(payload))]
	}
	pushErr := make(chan error, 1)
	go func() {
		_, err := Push(e, cfg)
		pushErr <- err
	}()

	select {
	case <-firstChunk:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received a chunk")
	}
	srv.Close()

	c := rec.waitDone(t, 10*time.Second)
	if c.res.Completed {
		t.Error("force-closed push reported Completed=true")
	}
	if c.kept {
		t.Errorf("force-closed push kept file %s", c.path)
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Errorf("partial file left behind: %v", names)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run returned %v after close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after close")
	}
	if err := <-pushErr; err == nil {
		t.Log("client push completed despite server close (raced the last ack)")
	}
	time.Sleep(200 * time.Millisecond)
	if n := rec.count(); n != 1 {
		t.Errorf("completion callback fired %d times, want 1", n)
	}
}

// The push path mirrors the pull path's degenerate-REQ guard: Bytes==0 or
// Chunk==0 is rejected at admission with a log line, before any file is
// created. (A degenerate push REQ used to reach the engine's chunk
// arithmetic.)
func TestPushRejectsDegenerateReq(t *testing.T) {
	dir := t.TempDir()
	rec := newDoneRecorder()
	logged := make(chan string, 8)
	sink := &store.FileSink{Dir: dir, OnDone: rec.hook, Logf: func(format string, args ...any) {
		select {
		case logged <- format:
		default:
		}
	}}

	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.SinkStream = sink.SinkStream
	go srv.Run()

	for _, req := range []wire.Req{
		{Bytes: 0, Chunk: 1024, Push: true, Window: 8, TrMicros: 20_000},
		{Bytes: 4096, Chunk: 0, Push: true, Window: 8, TrMicros: 20_000},
	} {
		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		if err := e.Send(&wire.Packet{Type: wire.TypeReq, Trans: 4244, Payload: wire.EncodeReq(req)}); err != nil {
			t.Fatal(err)
		}
		// No go-ahead comes back for a rejected push.
		if pkt, err := e.Recv(300 * time.Millisecond); err == nil {
			t.Errorf("degenerate push %+v got go-ahead %v", req, pkt.Type)
		} else if !core.IsTimeout(err) && err != net.ErrClosed {
			t.Logf("recv: %v", err)
		}
		e.Close()
	}

	select {
	case <-logged:
	case <-time.After(2 * time.Second):
		t.Error("rejection was never logged")
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Errorf("rejected push created files: %v", names)
	}
	if n := rec.count(); n != 0 {
		t.Errorf("completion callback fired %d times for rejected pushes", n)
	}
}
