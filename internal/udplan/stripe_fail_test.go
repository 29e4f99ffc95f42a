package udplan

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// TestPullStripedPartialFailure pins the hardened partial-failure path over
// real sockets: the server refuses exactly one stripe's range, that stripe
// gives up, and PullStriped returns a wrapped error naming it — while the
// surviving stripes' deliveries still show up in the partial result.
func TestPullStripedPartialFailure(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	defer conn.Close()
	srv := NewServer(conn)
	srv.Concurrency = 8
	srv.Idle = 2 * time.Second
	const (
		bytes   = 64000
		chunk   = 1000
		streams = 4
	)
	plan := core.PlanStripes(bytes, chunk, streams)
	refusedOffset := uint32(plan[1].Offset / chunk)
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		if r.OffsetChunks == refusedOffset {
			return nil, false // stripe 1's range is refused outright
		}
		stream := int(r.StreamBytes())
		return core.OffsetSource(
			core.SeededSource(int64(stream), stream, int(r.Chunk)),
			int(r.OffsetChunks)), true
	}
	go srv.Run()

	cfg := core.Config{
		TransferID: 9,
		Bytes:      bytes,
		ChunkSize:  chunk,
		Protocol:   core.Blast,
		Strategy:   core.GoBackN,
		// A refused stripe retries its REQ MaxAttempts times, Tr apart,
		// before giving up; keep that budget small so the failure is fast.
		RetransTimeout: 50 * time.Millisecond,
		MaxAttempts:    3,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   time.Second,
	}
	res, err := PullStriped(conn.LocalAddr().String(), cfg, StripeOptions{Streams: streams})
	if err == nil {
		t.Fatal("striped pull against a refusing server reported success")
	}
	if !errors.Is(err, core.ErrGiveUp) {
		t.Errorf("error %v does not wrap core.ErrGiveUp", err)
	}
	if !strings.Contains(err.Error(), "stripe 1 of 4") {
		t.Errorf("error %q does not name the refused stripe", err)
	}
	if res.Stripes[1].Err == nil {
		t.Error("refused stripe's outcome lost its error")
	}
	if res.Stripes[1].Recv.Bytes != 0 {
		t.Errorf("refused stripe delivered %d bytes", res.Stripes[1].Recv.Bytes)
	}
	// Fast stripes may have completed before the failure aborted the rest;
	// whatever did arrive must be accounted and bounded.
	if res.Bytes > bytes-plan[1].Bytes {
		t.Errorf("partial result reports %d bytes, more than the servable %d",
			res.Bytes, bytes-plan[1].Bytes)
	}
}
