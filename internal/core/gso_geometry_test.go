package core

import (
	"testing"
	"time"

	"blastlan/internal/wire"
)

// batchGeomEnv wraps a loopEnv with the queue/flush behaviour of a batching
// substrate, recording the on-wire size run of every flush. It mirrors the
// udplan flush points: the ring flushes when full, before any blocking or
// polling Recv, and immediately behind control traffic and FlagLast frames.
type batchGeomEnv struct {
	*loopEnv
	limit   int
	queued  []int
	flushes [][]int
}

func (e *batchGeomEnv) flushNow() {
	if len(e.queued) == 0 {
		return
	}
	e.flushes = append(e.flushes, append([]int(nil), e.queued...))
	e.queued = e.queued[:0]
}

func (e *batchGeomEnv) FlushBatch() error {
	e.flushNow()
	return nil
}

func (e *batchGeomEnv) Send(p *wire.Packet) error {
	if err := e.loopEnv.Send(p); err != nil {
		return err
	}
	e.queued = append(e.queued, wire.FrameBytes(p))
	if p.Type != wire.TypeData || p.Flags&wire.FlagLast != 0 || len(e.queued) >= e.limit {
		e.flushNow()
	}
	return nil
}

func (e *batchGeomEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }

func (e *batchGeomEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	e.flushNow()
	return e.loopEnv.Recv(timeout)
}

// The engines must hand batching substrates GSO-compatible flush geometry:
// every flushed run is equal-sized frames with at most one shorter trailing
// frame (a UDP_SEGMENT superbuffer's only legal shape — the kernel rejects
// a segment larger than gso_size mid-buffer). The transfer sizes here leave
// a short tail chunk and windows that do not divide the packet count, the
// cases that would break the invariant if FlagLast or the window flush ever
// regressed.
func TestFlushGeometryGSOCompatible(t *testing.T) {
	for _, proto := range []Protocol{Blast, BlastAsync, SlidingWindow} {
		for _, strat := range []Strategy{GoBackN, Selective} {
			t.Run(proto.String()+"/"+strat.String(), func(t *testing.T) {
				a, b := newLoopEnvPair()
				send := &batchGeomEnv{loopEnv: a, limit: 8}
				payload := SeededPayload(42, 10_500, 1000) // short 500-byte tail chunk
				cfg := Config{
					TransferID:     51,
					Bytes:          len(payload),
					ChunkSize:      1000,
					Window:         6, // does not divide 11 packets
					Protocol:       proto,
					Strategy:       strat,
					RetransTimeout: 100 * time.Millisecond,
					MaxAttempts:    20,
					Payload:        payload,
				}
				done := make(chan error, 1)
				go func() {
					_, err := RunSender(send, cfg)
					done <- err
				}()
				rcfg := cfg
				rcfg.Payload = nil
				if _, err := RunReceiver(b, rcfg); err != nil {
					t.Fatalf("receiver: %v", err)
				}
				if err := <-done; err != nil {
					t.Fatalf("sender: %v", err)
				}
				if len(send.flushes) == 0 {
					t.Fatal("no flushes recorded")
				}
				for fi, run := range send.flushes {
					for i := 1; i < len(run); i++ {
						if run[i] > run[i-1] {
							t.Fatalf("flush %d not GSO-compatible: frame %d grows (%v)", fi, i, run)
						}
						if i < len(run)-1 && run[i] != run[0] {
							t.Fatalf("flush %d not GSO-compatible: mid-run size change at %d (%v)", fi, i, run)
						}
					}
				}
			})
		}
	}
}
