package simrun

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/wire"
)

// A lost control packet costs about a round trip, not a Tr-scale timer: one
// scripted drop per tail, run through the substrate seam on the DES (exact
// virtual times) and over UDP loopback (bounds that the old timers — a REQ
// re-asked after 4·Tr, a first window's RTO of a fixed Tr, a receiver
// released only by its linger — cannot meet).

const (
	tailChunk   = 1000
	tailPackets = 16
	tailTr      = 50 * time.Millisecond
)

// tailConfig is a one-window pull of transfer id; the receiver lingers
// 4·Tr unless the sender's FIN releases it.
func tailConfig(id uint32) core.Config {
	return core.Config{
		TransferID: id, Bytes: tailPackets * tailChunk, ChunkSize: tailChunk,
		Protocol: core.Blast, Strategy: core.Selective, Window: tailPackets,
		RetransTimeout: tailTr, MaxAttempts: 3, Linger: 4 * tailTr,
	}
}

// reqClock is a client env that notes when each REQ it sends starts and
// finishes leaving, on the substrate's clock.
type reqClock struct {
	core.Env
	sent [][2]time.Duration
}

func (e *reqClock) Send(p *wire.Packet) error {
	t0 := e.Now()
	err := e.Env.Send(p)
	if p.Type == wire.TypeReq {
		e.sent = append(e.sent, [2]time.Duration{t0, e.Now()})
	}
	return err
}

// dropOnce is an adversary script that drops the first packet match
// accepts and passes everything else.
func dropOnce(match func(*wire.Packet) bool) func(*wire.Packet) params.Mangle {
	var mu sync.Mutex
	done := false
	return func(p *wire.Packet) params.Mangle {
		mu.Lock()
		defer mu.Unlock()
		if !done && match(p) {
			done = true
			return params.Mangle{Drop: true}
		}
		return params.Mangle{}
	}
}

func isReq(p *wire.Packet) bool { return p.Type == wire.TypeReq }

// isFIN recognises the sender's FIN: a payload-free FlagDone ack (a stat
// reply carries the size).
func isFIN(p *wire.Packet) bool {
	return p.Type == wire.TypeAck && p.Flags&wire.FlagDone != 0 && len(p.Payload) == 0
}

// tailRun is what one client saw: when its body started and ended, its REQ
// sends, and what the server logged.
type tailRun struct {
	clock      reqClock
	start, end time.Duration
	served     servedLog
}

func (r *tailRun) took() time.Duration { return r.end - r.start }

// runTail serves seeded objects (and stats of tailPackets chunks) on a fresh
// world from mk and runs body as one client under script (nil: no drops).
func runTail(t *testing.T, mk func() substrate, script func(*wire.Packet) params.Mangle, body func(env core.Env) error) *tailRun {
	t.Helper()
	w := mk()
	r := &tailRun{}
	h, err := w.serve("server", func(s *session.Server) {
		s.Concurrency, s.Idle = 4, time.Minute
		s.Source = core.SeededReqSource
		s.Stat = func(wire.Req) (int64, bool) { return tailPackets * tailChunk, true }
		s.Done = r.served.done
	})
	if err != nil {
		t.Fatal(err)
	}
	var berr error
	w.client("client", h, 0, params.Adversary{Script: script}, 1, func(env core.Env) {
		r.clock.Env = env
		r.start = w.now()
		berr = body(&r.clock)
		r.end = w.now()
	})
	if err := w.run(); err != nil {
		t.Fatal(err)
	}
	if berr != nil {
		t.Fatal(berr)
	}
	return r
}

// tailWorlds runs check with a world constructor for the DES (virtual) and,
// where loopback works, for UDP.
func tailWorlds(t *testing.T, check func(t *testing.T, mk func() substrate, virtual bool)) {
	t.Run("des", func(t *testing.T) {
		check(t, func() substrate {
			w, err := newDESWorld(params.ModernGigabit(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}, true)
	})
	t.Run("udp", func(t *testing.T) {
		if !udpAvailable() {
			t.Skip("no UDP loopback")
		}
		check(t, func() substrate { return newUDPWorld(UDP{Batch: 1}) }, false)
	})
}

// pull is a client body that requests cfg into res.
func pull(cfg core.Config, res *core.RecvResult) func(core.Env) error {
	return func(env core.Env) error {
		r, err := core.Request(env, cfg)
		*res = r
		return err
	}
}

// A pull whose first REQ is lost asks again Tr after it, and from there runs
// exactly as a pull that lost nothing.
func TestLostREQCostsTr(t *testing.T) {
	tailWorlds(t, func(t *testing.T, mk func() substrate, virtual bool) {
		var res core.RecvResult
		r := runTail(t, mk, dropOnce(isReq), pull(tailConfig(1), &res))
		if !res.Completed || res.Reqs != 2 || len(r.clock.sent) != 2 {
			t.Fatalf("completed %v after %d REQs (%d sent), want 2", res.Completed, res.Reqs, len(r.clock.sent))
		}
		gap := r.clock.sent[1][0] - r.clock.sent[0][1]
		if !virtual {
			if r.took() >= 3*tailTr {
				t.Errorf("a lost REQ cost %v (re-asked %v after it), want under 3·Tr = %v", r.took(), gap, 3*tailTr)
			}
			return
		}
		var cleanRes core.RecvResult
		clean := runTail(t, mk, nil, pull(tailConfig(1), &cleanRes))
		if gap != tailTr {
			t.Errorf("REQ re-asked %v after the first left, want Tr = %v", gap, tailTr)
		}
		if got, want := r.end-r.clock.sent[1][0], clean.end-clean.clock.sent[0][0]; got != want {
			t.Errorf("the re-asked pull took %v, a clean one %v", got, want)
		}
	})
}

// A stat whose REQ is lost asks again Tr after it: the reply comes from the
// server's accept hook, as a push's go-ahead does.
func TestLostStatREQCostsTr(t *testing.T) {
	tailWorlds(t, func(t *testing.T, mk func() substrate, virtual bool) {
		stat := func(env core.Env) error {
			size, err := core.Stat(env, tailConfig(1), "obj")
			if err == nil && size != tailPackets*tailChunk {
				t.Errorf("stat size %d, want %d", size, tailPackets*tailChunk)
			}
			return err
		}
		r := runTail(t, mk, dropOnce(isReq), stat)
		if len(r.clock.sent) != 2 {
			t.Fatalf("%d stat REQs sent, want 2", len(r.clock.sent))
		}
		gap := r.clock.sent[1][0] - r.clock.sent[0][1]
		if !virtual {
			if r.took() >= 3*tailTr {
				t.Errorf("a lost stat REQ cost %v (re-asked %v after it), want under 3·Tr = %v", r.took(), gap, 3*tailTr)
			}
			return
		}
		clean := runTail(t, mk, nil, stat)
		if gap != tailTr {
			t.Errorf("stat REQ re-asked %v after the first left, want Tr = %v", gap, tailTr)
		}
		if got, want := r.end-r.clock.sent[1][0], clean.took(); got != want {
			t.Errorf("the re-asked stat took %v, a clean one %v", got, want)
		}
	})
}

// The second adaptive pull from a host starts its RTO from the first one's
// smoothed RTT: losing its first window's reliable last costs about a round
// trip, where a fixed Tr would cost the whole Tr.
func TestLostFirstLastCostsRTT(t *testing.T) {
	twoPulls := func(env core.Env) error {
		for id := uint32(1); id <= 2; id++ {
			cfg := tailConfig(id)
			cfg.Controller = core.ControllerAIMD
			if _, err := core.Request(env, cfg); err != nil {
				return err
			}
		}
		return nil
	}
	secondLast := func(p *wire.Packet) bool {
		return p.Trans == 2 && p.Type == wire.TypeData && p.IsLast() && p.Attempt == 0
	}
	tailWorlds(t, func(t *testing.T, mk func() substrate, virtual bool) {
		r := runTail(t, mk, dropOnce(secondLast), twoPulls)
		first, second := r.served.byID[1], r.served.byID[2]
		if r.served.n != 2 || first.RTOFromPath || !second.RTOFromPath || second.Timeouts < 1 {
			t.Fatalf("served %d; first from the path %v, second from the path %v with %d timeouts; want 2, false, true, ≥ 1",
				r.served.n, first.RTOFromPath, second.RTOFromPath, second.Timeouts)
		}
		if !virtual {
			if second.Elapsed >= tailTr/2 {
				t.Errorf("the second pull took %v with its reliable last lost, want under Tr/2 = %v", second.Elapsed, tailTr/2)
			}
			return
		}
		// The first pull's smoothed RTT is a few tens of µs, so the
		// second's first RTO is the estimator's 1 ms floor; the loss then
		// costs that wait plus one more send of the reliable last.
		clean := runTail(t, mk, nil, twoPulls)
		cost := params.ModernGigabit()
		want := time.Millisecond + cost.CopyTime(tailChunk) + cost.WireTime(tailChunk)
		if stall := second.Elapsed - clean.served.byID[2].Elapsed; stall != want {
			t.Errorf("losing the second pull's reliable last cost %v, want the 1 ms RTO floor and one data packet: %v", stall, want)
		}
	})
}

// A lossy pull's FIN goes out twice, so losing one still releases the
// receiver at once instead of after its linger.
func TestLostFINReleasesReceiver(t *testing.T) {
	lossy := func(p *wire.Packet) params.Mangle {
		if p.Type == wire.TypeData && p.Seq == 3 && p.Attempt == 0 {
			return params.Mangle{Drop: true}
		}
		return params.Mangle{}
	}
	tailWorlds(t, func(t *testing.T, mk func() substrate, virtual bool) {
		fin := dropOnce(isFIN)
		var res core.RecvResult
		r := runTail(t, mk, func(p *wire.Packet) params.Mangle {
			if m := lossy(p); m.Drop {
				return m
			}
			return fin(p)
		}, pull(tailConfig(1), &res))
		if !res.Completed || r.served.byID[1].Retransmits == 0 {
			t.Fatalf("completed %v with %d retransmits: want a lossy pull", res.Completed, r.served.byID[1].Retransmits)
		}
		if !virtual {
			if r.took() >= 2*tailTr {
				t.Errorf("a lost FIN kept the receiver %v, want under 2·Tr = %v (its linger is %v)", r.took(), 2*tailTr, 4*tailTr)
			}
			return
		}
		// Against the same lossy pull with both FINs delivered, the receiver
		// is released by the second FIN: one ack-sized send later.
		var cleanRes core.RecvResult
		clean := runTail(t, mk, lossy, pull(tailConfig(1), &cleanRes))
		cost := params.ModernGigabit()
		if got, want := r.took()-clean.took(), cost.Ca()+cost.Ta(); got != want {
			t.Errorf("a lost FIN cost the receiver %v, want one FIN's send: %v", got, want)
		}
	})
}

// lossyPullConfig is the benchmark's lossy_pull transfer: 16 MB in 1000-byte
// chunks, selective repeat under aimd from a 256-packet window, Tr and the
// receiver's linger 50 ms.
func lossyPullConfig(id uint32) core.Config {
	return core.Config{
		TransferID: id, Bytes: 16 << 20, ChunkSize: 1000,
		Protocol: core.Blast, Strategy: core.Selective, Window: 256, Controller: core.ControllerAIMD,
		RetransTimeout: tailTr, MaxAttempts: 300, Linger: tailTr, ReceiverIdle: 10 * time.Second,
	}
}

// lossyPulls runs n two-stripe lossy_pull transfers back to back against one
// server on the DES, every stripe under its own seeded loss of rate loss,
// and returns each pull's virtual time. Each pull dials fresh stations with
// the same names, so — as every stripe over loopback comes from one IP — a
// pull's senders find the last pull's smoothed RTT in the server's table.
func lossyPulls(t *testing.T, n int, loss float64) []time.Duration {
	t.Helper()
	k := sim.NewKernel()
	network, err := sim.NewNetwork(k, params.ModernGigabit(), params.LossModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverSt := network.AddStation("server")
	// A nil chunk source serves sizes only, as a simulated transfer moves
	// them: the tail is in the timers, not in the bytes.
	sizes := func(wire.Req) (core.ChunkSource, bool) { return nil, true }
	srv := &session.Server{Idle: time.Minute, Concurrency: 3, Source: sizes}
	var srvErr error
	sim.Serve(network, serverSt, func(l *sim.Listener) { srvErr = srv.Run(l) })
	took := make([]time.Duration, n)
	var pullErr error
	k.Go("puller", func(p *sim.Proc) {
		for i := range took {
			f := &sim.Fabric{Net: network, Server: serverSt, P: p, Name: "stripe",
				Prepare: func(s int, st *sim.Station) error {
					return st.SetAdversary(params.Adversary{Loss: params.LossModel{PNet: loss}}, int64(2*i+s))
				},
			}
			res, err := session.PullStriped(f, lossyPullConfig(uint32(1+2*i)), session.StripeOptions{Streams: 2})
			if err != nil {
				pullErr = fmt.Errorf("pull %d: %w", i, err)
				return
			}
			took[i] = res.Elapsed
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if srvErr != nil || pullErr != nil {
		t.Fatalf("server: %v; %v", srvErr, pullErr)
	}
	return took
}

// The lossy_pull tail, in virtual time: of 200 seeded pulls at 1 % loss the
// slowest finishes within Tr plus twice a loss-free pull: a lost control
// packet may cost one Tr, never a Tr-scale timer per loss. 3.2 GB of
// simulated traffic: skipped under -short.
func TestLossyPullTail(t *testing.T) {
	if testing.Short() {
		t.Skip("200 simulated 16 MB pulls")
	}
	clean := lossyPulls(t, 1, 0)[0]
	took := lossyPulls(t, 200, 0.01)
	sorted := slices.Sorted(slices.Values(took))
	slowest, bound := sorted[len(sorted)-1], tailTr+2*clean
	t.Logf("%d pulls: p50 %v, p95 %v, slowest %v; loss-free %v", len(took), sorted[len(sorted)/2], sorted[len(sorted)*95/100], slowest, clean)
	if slowest > bound {
		t.Errorf("slowest lossy pull took %v, want within Tr + 2×%v = %v", slowest, clean, bound)
	}
}
