package simrun

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// runHandshake wires a push or pull handshake pair over a simulated
// network and returns both sides' outcomes.
func runHandshake(t *testing.T, push bool, loss params.LossModel, seed int64) (core.SendResult, core.RecvResult) {
	t.Helper()
	payload := make([]byte, 16*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cfg := core.Config{
		TransferID:     42,
		Bytes:          len(payload),
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		RetransTimeout: 50 * time.Millisecond,
		MaxAttempts:    200,
		Payload:        payload,
	}
	k := sim.NewKernel()
	n, err := sim.NewNetwork(k, params.VKernel(), loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.AddStation("src"), n.AddStation("dst")

	var sres core.SendResult
	var rres core.RecvResult
	var sErr, rErr error

	if push {
		k.Go("pusher", func(p *sim.Proc) {
			env := sim.NewEndpoint(p, src, dst)
			sres, sErr = core.Push(env, cfg)
		})
		k.Go("accepter", func(p *sim.Proc) {
			env := sim.NewEndpoint(p, dst, src)
			acc, ok, err := core.ServeOnceID(env, -1, func(r wire.Req, _ uint32) (core.Config, bool) {
				if !r.Push {
					return core.Config{}, false
				}
				return core.ConfigOf(0, r), true
			})
			if err != nil || !ok {
				rErr = fmt.Errorf("push announce refused: %v", err)
				return
			}
			rres, rErr = core.AcceptPush(env, acc)
		})
	} else {
		k.Go("server", func(p *sim.Proc) {
			env := sim.NewEndpoint(p, src, dst)
			acc, _, err := core.ServeOnceID(env, -1, func(r wire.Req, _ uint32) (core.Config, bool) {
				c := core.ConfigOf(0, r)
				c.Payload = payload
				return c, true
			})
			if err != nil {
				rErr = err
				return
			}
			sres, sErr = core.RunSender(env, acc)
		})
		k.Go("puller", func(p *sim.Proc) {
			env := sim.NewEndpoint(p, dst, src)
			pull := cfg
			pull.Payload = nil
			rres, rErr = core.Request(env, pull)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sErr != nil || rErr != nil {
		t.Fatalf("handshake failed: send=%v recv=%v", sErr, rErr)
	}
	if !rres.Completed || !bytes.Equal(rres.Data, payload) {
		t.Fatalf("payload mismatch: completed=%v got %d bytes", rres.Completed, len(rres.Data))
	}
	return sres, rres
}

func TestPushHandshakeErrorFree(t *testing.T) {
	sres, _ := runHandshake(t, true, params.NoLoss(), 1)
	if sres.DataPackets != 16 {
		t.Errorf("sent %d packets", sres.DataPackets)
	}
}

func TestPullHandshakeErrorFree(t *testing.T) {
	runHandshake(t, false, params.NoLoss(), 1)
}

func TestPushHandshakeUnderLoss(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runHandshake(t, true, params.LossModel{PNet: 0.05}, seed)
	}
}

func TestPullHandshakeUnderLoss(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runHandshake(t, false, params.LossModel{PNet: 0.05}, seed)
	}
}

// ConfigOf/ReqOf must round-trip the transfer parameters.
func TestConfigReqRoundTrip(t *testing.T) {
	cfg := core.Config{
		Bytes:          123456,
		ChunkSize:      512,
		Protocol:       core.SlidingWindow,
		Strategy:       core.Selective,
		Window:         32,
		RetransTimeout: 70 * time.Millisecond,
	}
	got := core.ConfigOf(9, core.ReqOf(cfg, true))
	if got.Bytes != cfg.Bytes || got.ChunkSize != cfg.ChunkSize ||
		got.Protocol != cfg.Protocol || got.Strategy != cfg.Strategy ||
		got.Window != cfg.Window || got.RetransTimeout != cfg.RetransTimeout {
		t.Errorf("round trip mismatch: %+v vs %+v", got, cfg)
	}
	if got.TransferID != 9 {
		t.Errorf("transfer id = %d", got.TransferID)
	}
}

// A push refused at admission is re-announced on the server's RETRY-AFTER
// hint, not after a Tr of silence: with a session cap of one and both
// pushers arriving together the loser's announcement earns BUSY, and with Tr
// deliberately huge both pushes must still finish well inside one Tr.
func TestPushHonorsBusyAgainstCapOfOne(t *testing.T) {
	const (
		tr    = 5 * time.Second
		bytes = 64 << 10
	)
	run := func() ([2]time.Duration, int) {
		k := sim.NewKernel()
		n, err := sim.NewNetwork(k, params.ModernGigabit(), params.LossModel{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		serverSt := n.AddStation("server")
		var got []int // bytes of each completed push
		srv := &session.Server{
			Concurrency: 1,
			Idle:        time.Minute,
			SinkStream: func(wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
				return func(int, []byte) {}, func(res core.RecvResult) {
					if res.Completed {
						got = append(got, res.Bytes)
					}
				}, true
			},
		}
		var srvErr error
		sim.Serve(n, serverSt, func(l *sim.Listener) { srvErr = srv.Run(l) })

		var elapsed [2]time.Duration
		k.Go("pushers", func(p *sim.Proc) {
			f := &simFabric{Net: n, Server: serverSt, P: p}
			errs := f.Fan(2, func(i int, c transport.Client) error {
				cfg := core.Config{
					TransferID:     uint32(i + 1),
					Bytes:          bytes,
					Payload:        core.SeededPayload(int64(i), bytes, 1024),
					Protocol:       core.Blast,
					Strategy:       core.GoBackN,
					RetransTimeout: tr,
					MaxAttempts:    8,
				}
				t0 := c.Now()
				_, err := core.Push(c, cfg)
				elapsed[i] = c.Now() - t0
				return err
			})
			for i, err := range errs {
				if err != nil {
					t.Errorf("pusher %d: %v", i, err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if srvErr != nil {
			t.Fatal(srvErr)
		}
		for i, n := range got {
			if n != bytes {
				t.Errorf("push %d delivered %d of %d bytes", i, n, bytes)
			}
		}
		return elapsed, srv.Served()
	}
	elapsed, served := run()
	if served != 2 {
		t.Fatalf("served %d pushes, want 2", served)
	}
	for i, el := range elapsed {
		if el >= tr {
			t.Errorf("pusher %d took %v: its refused announcement waited out Tr = %v instead of the BUSY hint", i, el, tr)
		}
	}
	if again, _ := run(); again != elapsed {
		t.Errorf("BUSY-retried push is not deterministic across runs: %v then %v", elapsed, again)
	}
}
