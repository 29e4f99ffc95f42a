package udplan

import (
	"bytes"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// A push over a fully batched endpoint pair must deliver byte-identical
// data for every protocol, at several batch sizes.
func TestBatchedTransferAllProtocols(t *testing.T) {
	for _, batch := range []int{2, 4, 32} {
		for _, p := range []core.Protocol{core.StopAndWait, core.SlidingWindow, core.Blast} {
			payload := randomPayload(16*1024, int64(batch)*10+int64(p))
			srv, addr := newLoopbackServer(t)
			srv.Batch = batch
			got := make(chan []byte, 1)
			srv.SinkStream = pushInto(got)
			go srv.Run()

			e, err := Dial(addr)
			if err != nil {
				t.Skipf("dial: %v", err)
			}
			e.SetBatch(batch)
			if _, err := Push(e, loopCfg(uint32(batch*10)+uint32(p), payload, p, core.GoBackN)); err != nil {
				t.Fatalf("batch=%d %v: %v", batch, p, err)
			}
			select {
			case data := <-got:
				if !bytes.Equal(data, payload) {
					t.Fatalf("batch=%d %v: corrupted", batch, p)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("batch=%d %v: timed out", batch, p)
			}
			e.Close()
		}
	}
}

// The Tx reorder-hold semantics must be bit-identical on the batched path:
// same arrival order as the single-syscall test above it.
func TestBatchedMangleTxReorder(t *testing.T) {
	ea, eb := pipe(t)
	ea.SetBatch(4)
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
	if err := ea.FlushBatch(); err != nil {
		t.Fatal(err)
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

// Batched duplicates and corruption: the duplicate arrives twice, the
// corrupted frame is rejected by the receiver's checksum — exactly as on
// the single-syscall path.
func TestBatchedMangleDupAndCorrupt(t *testing.T) {
	ea, eb := pipe(t)
	ea.SetBatch(8)
	ea.MangleTx = func(p *wire.Packet) params.Mangle {
		switch p.Seq {
		case 1:
			return params.Mangle{Duplicate: true}
		case 2:
			return params.Mangle{Corrupt: true, CorruptBit: 77}
		}
		return params.Mangle{}
	}
	for i := 0; i < 4; i++ {
		if err := ea.Send(data(uint32(i), "y")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ea.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	var order []uint32
	for i := 0; i < 4; i++ { // 0, 1, 1(dup), 3 — seq 2 dies on the checksum
		pkt, err := eb.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, pkt.Seq)
	}
	want := []uint32{0, 1, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", order, want)
		}
	}
	if _, err := eb.Recv(50 * time.Millisecond); !core.IsTimeout(err) {
		t.Fatalf("expected silence after the batch, got %v", err)
	}
}

// A full ring flushes itself: no explicit FlushBatch needed once batch
// packets are queued.
func TestBatchAutoFlushWhenFull(t *testing.T) {
	ea, eb := pipe(t)
	ea.SetBatch(3)
	for i := 0; i < 3; i++ {
		if err := ea.Send(data(uint32(i), "z")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := eb.Recv(2 * time.Second); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
}

// Control packets and FlagLast data flush the queue immediately — the
// reliable last packet of a window must never linger in the ring.
func TestBatchFlushesOnLastAndControl(t *testing.T) {
	ea, eb := pipe(t)
	ea.SetBatch(16)
	if err := ea.Send(data(0, "a")); err != nil {
		t.Fatal(err)
	}
	lastPkt := data(1, "b")
	lastPkt.Flags |= wire.FlagLast
	if err := ea.Send(lastPkt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eb.Recv(2 * time.Second); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}

	if err := ea.Send(data(2, "c")); err != nil { // queued
		t.Fatal(err)
	}
	if err := ea.Send(&wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 3}); err != nil {
		t.Fatal(err) // control: flushes the queued data ahead of itself
	}
	p1, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t1 := p1.Type // the packet is valid only until the next Recv
	p2, err := eb.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != wire.TypeData || p2.Type != wire.TypeAck {
		t.Fatalf("order %v then %v; want DATA then ACK", t1, p2.Type)
	}
}

// MTU plumbing: oversized configs are rejected with ErrMTU up front, and a
// raised MTU accepts jumbo chunks end to end.
func TestMTUValidationAndJumbo(t *testing.T) {
	ea, eb := pipe(t)
	big := core.Config{
		TransferID: 1, Bytes: 8192, ChunkSize: 4096,
		Protocol: core.Blast, RetransTimeout: 100 * time.Millisecond,
		Payload: randomPayload(8192, 4),
	}
	if _, err := Push(ea, big); err == nil || !bytesContains(err.Error(), "MTU") {
		t.Fatalf("oversized chunk accepted: %v", err)
	}

	if err := ea.SetMTU(wire.HeaderSize); err == nil {
		t.Error("tiny MTU accepted")
	}
	if err := ea.SetMTU(MaxMTU + 1); err == nil {
		t.Error("huge MTU accepted")
	}
	if err := ea.SetMTU(9000); err != nil {
		t.Fatal(err)
	}
	if err := eb.SetMTU(9000); err != nil {
		t.Fatal(err)
	}
	if got := ea.mtu; got != 9000 {
		t.Fatalf("MTU = %d", got)
	}
	ea.SetBatch(4) // rings re-sized to the jumbo MTU

	payload := randomPayload(16384, 9)
	cfg := core.Config{
		TransferID: 2, Bytes: len(payload), ChunkSize: 4096,
		Protocol: core.Blast, Strategy: core.GoBackN,
		RetransTimeout: 200 * time.Millisecond, MaxAttempts: 20,
		Linger: 100 * time.Millisecond, ReceiverIdle: 2 * time.Second,
		Payload: payload,
	}
	rcfg := cfg
	rcfg.Payload = nil
	type out struct {
		res core.RecvResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := core.RunReceiver(eb, rcfg)
		done <- out{r, err}
	}()
	if _, err := Push(ea, cfg); err != nil {
		t.Fatal(err)
	}
	ro := <-done
	if ro.err != nil {
		t.Fatal(ro.err)
	}
	if !bytes.Equal(ro.res.Data, payload) {
		t.Error("jumbo transfer corrupted")
	}
}

func bytesContains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// Deep reorder holds drain in O(n): a regression guard for the popReady
// index ring (the old slice-delete pop was quadratic in the ready-queue
// depth). Semantics only — the held packets must all surface, in hold
// order, when the blocking read times out.
func TestDeepHoldDrainOrder(t *testing.T) {
	ea, eb := pipe(t)
	const n = 200
	eb.MangleRx = func(p *wire.Packet) params.Mangle {
		return params.Mangle{Hold: 1000} // nothing ever overtakes
	}
	for i := 0; i < n; i++ {
		if err := ea.Send(data(uint32(i), "h")); err != nil {
			t.Fatal(err)
		}
	}
	// Give loopback delivery a moment, then read: the first blocking Recv
	// judges (and holds) every arrival, then times out and releases the
	// holds as late arrivals; later Recvs drain the ready queue.
	time.Sleep(50 * time.Millisecond)
	seen := 0
	for seen < n {
		pkt, err := eb.Recv(200 * time.Millisecond)
		if err != nil {
			t.Fatalf("after %d packets: %v", seen, err)
		}
		if int(pkt.Seq) != seen {
			t.Fatalf("hold order broken: got %d want %d", pkt.Seq, seen)
		}
		seen++
	}
}

// Pull through a batched serial server with a streaming source: no
// transfer-sized buffer on either side, checksum verified end to end.
func TestBatchedStreamingPull(t *testing.T) {
	const size = 256 * 1024
	srv, addr := newLoopbackServer(t)
	srv.Batch = 16
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk)), true
	}
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	e.SetBatch(16)

	want := core.SeededPayload(size, size, 1000)
	got := make([]byte, size)
	cfg := loopCfg(31, nil, core.Blast, core.GoBackN)
	cfg.Bytes = size
	cfg.Window = 64
	cfg.Sink = func(off int, b []byte) { copy(got[off:], b) }
	res, err := Pull(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != nil {
		t.Error("sink-mode pull assembled Data")
	}
	if !bytes.Equal(got, want) {
		t.Error("streamed pull corrupted")
	}
	if res.Checksum != wire.Checksum(want) {
		t.Errorf("incremental checksum %04x want %04x", res.Checksum, wire.Checksum(want))
	}
}
