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
func (e *batchGeomEnv) BatchLimit() int                { return e.limit }
func (e *batchGeomEnv) SetBatchLimit(n int)            { e.limit = n }

func (e *batchGeomEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	e.flushNow()
	return e.loopEnv.Recv(timeout)
}

// gsoBatchEnv extends batchGeomEnv with the batch-limit and flush-unit
// geometry of a GSO-tier endpoint: the flush threshold is adjustable and one
// flush syscall carries up to unit frames as a single superbuffer
// (core.Datapath's SetBatchLimit and FlushUnit), the way udplan reports
// TierGSO.
type gsoBatchEnv struct {
	*batchGeomEnv
	unit   int
	ring   int
	limits []int // SetBatchLimit history, restore included
}

func (e *gsoBatchEnv) SetBatchLimit(n int) {
	e.limits = append(e.limits, n)
	e.limit = n
}
func (e *gsoBatchEnv) FlushUnit() int { return e.unit }

// At the GSO tier the flush threshold must follow the controller's window
// in whole superbuffer units, not mmsg frame counts: the kernel bursts a
// superbuffer back-to-back regardless, so a threshold that chops a window
// at a frame-count recommendation splits one UDP_SEGMENT call into several
// without shrinking the wire burst. The window trajectory here passes
// through 40 packets — an mmsg-era actuation would set the threshold to 40;
// superbuffer quantization (unit 16) must set 48.
func TestBatchLimitGSOFollowsWindowInSuperbufferUnits(t *testing.T) {
	a, b := newLoopEnvPair()
	ring := 64
	send := &gsoBatchEnv{batchGeomEnv: &batchGeomEnv{loopEnv: a, limit: ring}, unit: 16, ring: ring}
	payload := SeededPayload(7, 140_000, 1000) // windows 20, 40, 80 on a clean path
	cfg := Config{
		TransferID:     52,
		Bytes:          len(payload),
		ChunkSize:      1000,
		Window:         20, // seeds the controller off unit alignment
		Controller:     ControllerAIMD,
		Protocol:       Blast,
		Strategy:       GoBackN,
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
	if len(send.limits) == 0 {
		t.Fatal("no batch-limit actuations recorded")
	}
	for i, lim := range send.limits {
		if lim%send.unit != 0 {
			t.Errorf("actuation %d set flush threshold %d: not a whole number of %d-segment superbuffers", i, lim, send.unit)
		}
		if lim > ring {
			t.Errorf("actuation %d set flush threshold %d beyond the %d-frame ring", i, lim, ring)
		}
	}
	// The 40-packet window must ride three superbuffers' worth of threshold
	// (48), not the mmsg frame recommendation (40).
	if send.limits[0] != 48 {
		t.Errorf("first actuation = %d, want 48 (window 40 in superbuffer units)", send.limits[0])
	}
	// The transfer-scoped actuation contract still holds: the configured
	// threshold comes back afterwards.
	if last := send.limits[len(send.limits)-1]; last != ring {
		t.Errorf("final actuation = %d, want the configured %d restored", last, ring)
	}
}

// fixedWinController pins Window/Batch so batchLimitFor's quantization can
// be probed directly.
type fixedWinController struct{ win, batch int }

func (f fixedWinController) Window() int            { return f.win }
func (f fixedWinController) Gap() time.Duration     { return 0 }
func (f fixedWinController) Batch() int             { return f.batch }
func (f fixedWinController) Observe(WindowObs)      {}
func (f fixedWinController) Stats() ControllerStats { return ControllerStats{} }

func TestBatchLimitForQuantization(t *testing.T) {
	cases := []struct {
		win, batch, unit, ring, want int
	}{
		{win: 40, batch: 40, unit: 1, ring: 64, want: 40},  // frame tiers: the recommendation itself
		{win: 40, batch: 40, unit: 16, ring: 64, want: 48}, // GSO: round up to whole superbuffers
		{win: 16, batch: 16, unit: 64, ring: 64, want: 64}, // below one superbuffer: never sub-unit
		{win: 512, batch: 32, unit: 64, ring: 64, want: 64},
		{win: 512, batch: 32, unit: 16, ring: 32, want: 32}, // ring still caps
	}
	for _, c := range cases {
		got := batchLimitFor(fixedWinController{win: c.win, batch: c.batch}, c.unit, c.ring)
		if got != c.want {
			t.Errorf("batchLimitFor(win=%d batch=%d unit=%d ring=%d) = %d, want %d",
				c.win, c.batch, c.unit, c.ring, got, c.want)
		}
	}
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
