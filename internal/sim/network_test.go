package sim

import (
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// newTestNet builds a two-station network with the standalone cost model.
func newTestNet(t *testing.T, cost params.CostModel, loss params.LossModel, seed int64) (*Kernel, *Network, *Station, *Station) {
	t.Helper()
	k := NewKernel()
	n, err := NewNetwork(k, cost, loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	return k, n, n.AddStation("src"), n.AddStation("dst")
}

func dataPkt(seq uint32) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Seq: seq, Total: 1, VirtualSize: params.DataPacketSize}
}

func ackPkt() *wire.Packet {
	return &wire.Packet{Type: wire.TypeAck, VirtualSize: params.AckPacketSize}
}

func TestNewNetworkValidates(t *testing.T) {
	k := NewKernel()
	if _, err := NewNetwork(k, params.CostModel{}, params.NoLoss(), 1); err == nil {
		t.Error("invalid cost model accepted")
	}
	if _, err := NewNetwork(k, params.Standalone3Com(), params.LossModel{PNet: 2}, 1); err == nil {
		t.Error("invalid loss model accepted")
	}
}

// A single send+receive must cost exactly C (copy in) + T (wire) + τ + C
// (copy out) — the left half of the paper's Figure 2.
func TestSingleTransferTiming(t *testing.T) {
	cost := params.Standalone3Com()
	k, _, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
	var done time.Duration
	k.Go("sender", func(p *Proc) { src.Send(p, dst, dataPkt(0)) })
	k.Go("receiver", func(p *Proc) {
		if _, err := dst.Recv(p, -1); err != nil {
			t.Error(err)
		}
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := cost.C() + cost.T() + cost.Propagation + cost.C()
	if done != want {
		t.Errorf("receive completed at %v, want %v", done, want)
	}
}

// A full 1-packet reliable exchange (data + ack) must cost Table 2's
// 2C + T + 2Ca + Ta (+2τ): ≈ 3.91 ms.
func TestOnePacketExchangeMatchesTable2(t *testing.T) {
	cost := params.Standalone3Com()
	k, _, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
	var done time.Duration
	k.Go("sender", func(p *Proc) {
		src.Send(p, dst, dataPkt(0))
		if _, err := src.Recv(p, -1); err != nil {
			t.Error(err)
		}
		done = p.Now()
	})
	k.Go("receiver", func(p *Proc) {
		if _, err := dst.Recv(p, -1); err != nil {
			t.Error(err)
		}
		dst.Send(p, src, ackPkt())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*cost.C() + cost.T() + 2*cost.Ca() + cost.Ta() + 2*cost.Propagation
	if done != want {
		t.Errorf("exchange = %v, want %v", done, want)
	}
	if done < 3900*time.Microsecond || done > 3950*time.Microsecond {
		t.Errorf("exchange = %v, want ≈ 3.91 ms (Table 2)", done)
	}
}

func TestRecvTimeout(t *testing.T) {
	k, _, _, dst := newTestNet(t, params.Standalone3Com(), params.NoLoss(), 1)
	k.Go("receiver", func(p *Proc) {
		start := p.Now()
		_, err := dst.Recv(p, 5*time.Millisecond)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("err = %v, want deadline exceeded", err)
		}
		if p.Now()-start != 5*time.Millisecond {
			t.Errorf("timed out after %v", p.Now()-start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWireLossDropsEverything(t *testing.T) {
	k, _, src, dst := newTestNet(t, params.Standalone3Com(), params.LossModel{PNet: 1}, 1)
	k.Go("sender", func(p *Proc) {
		for i := 0; i < 5; i++ {
			src.Send(p, dst, dataPkt(uint32(i)))
		}
	})
	k.Go("receiver", func(p *Proc) {
		if _, err := dst.Recv(p, 100*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("packet survived certain loss: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Counters.WireDrops != 5 {
		t.Errorf("WireDrops = %d, want 5", dst.Counters.WireDrops)
	}
}

func TestIfaceLossCounted(t *testing.T) {
	k, _, src, dst := newTestNet(t, params.Standalone3Com(), params.LossModel{PIface: 1}, 1)
	k.Go("sender", func(p *Proc) { src.Send(p, dst, dataPkt(0)) })
	k.Go("receiver", func(p *Proc) {
		dst.Recv(p, 50*time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Counters.IfaceDrops != 1 {
		t.Errorf("IfaceDrops = %d, want 1", dst.Counters.IfaceDrops)
	}
}

// With nobody receiving, a burst longer than RxBuffers must overrun.
func TestRxOverrun(t *testing.T) {
	cost := params.Standalone3Com() // RxBuffers = 2
	k, _, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
	k.Go("sender", func(p *Proc) {
		for i := 0; i < 5; i++ {
			src.Send(p, dst, dataPkt(uint32(i)))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Counters.Overruns != 3 {
		t.Errorf("Overruns = %d, want 3 (5 sent, 2 buffers)", dst.Counters.Overruns)
	}
	if got := dst.FlushRx(); got != 2 {
		t.Errorf("FlushRx = %d, want 2", got)
	}
	if got := dst.FlushRx(); got != 0 {
		t.Errorf("second FlushRx = %d, want 0", got)
	}
}

// Loss draws must be reproducible for a fixed seed and differ across seeds.
func TestLossDeterminism(t *testing.T) {
	run := func(seed int64) int64 {
		k, _, src, dst := newTestNet(t, params.Standalone3Com(), params.LossModel{PNet: 0.3}, seed)
		k.Go("sender", func(p *Proc) {
			for i := 0; i < 64; i++ {
				src.Send(p, dst, dataPkt(uint32(i)))
			}
		})
		k.Go("receiver", func(p *Proc) {
			for {
				if _, err := dst.Recv(p, 20*time.Millisecond); err != nil {
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return dst.Counters.WireDrops
	}
	a1, a2 := run(42), run(42)
	if a1 != a2 {
		t.Errorf("same seed, different drops: %d vs %d", a1, a2)
	}
	if a1 == 0 {
		t.Error("p=0.3 over 64 packets should drop something")
	}
	diff := false
	for seed := int64(1); seed < 6; seed++ {
		if run(seed) != a1 {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("drops identical across five seeds; rng not wired up?")
	}
}

// The Gilbert–Elliott chain must produce clustered (bursty) losses whose
// average matches its stationary mean.
func TestGilbertElliottBurstiness(t *testing.T) {
	ge := &params.GilbertElliott{PGood: 0, PBad: 1, PGoodToBad: 0.02, PBadToGood: 0.2}
	var drops, sent int64
	var runs []int
	for seed := int64(0); seed < 20; seed++ {
		k, _, src, dst := newTestNet(t, params.Standalone3Com(), params.LossModel{Burst: ge}, seed)
		k.Go("sender", func(p *Proc) {
			for i := 0; i < 200; i++ {
				src.Send(p, dst, dataPkt(uint32(i)))
			}
		})
		k.Go("receiver", func(p *Proc) {
			// Generous timeout so the receiver outlives loss bursts and
			// never lets the interface overrun.
			for {
				if _, err := dst.Recv(p, 100*time.Millisecond); err != nil {
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if dst.Counters.Overruns != 0 {
			t.Fatalf("seed %d: unexpected overruns %d", seed, dst.Counters.Overruns)
		}
		drops += dst.Counters.WireDrops
		sent += 200
		_ = runs
	}
	mean := ge.MeanLoss() // ≈ 0.0909
	got := float64(drops) / float64(sent)
	if got < mean/2 || got > mean*2 {
		t.Errorf("burst loss rate = %.3f, want ≈ %.3f", got, mean)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	k, _, src, _ := newTestNet(t, params.Standalone3Com(), params.NoLoss(), 1)
	k.Go("bad", func(p *Proc) { src.Send(p, src, dataPkt(0)) })
	if err := k.Run(); err == nil {
		t.Error("self-send should be reported")
	}
}

// Half-duplex: two simultaneous transmissions serialise on the medium.
func TestMediumSerialises(t *testing.T) {
	cost := params.Standalone3Com()
	k, _, a, b := newTestNet(t, cost, params.NoLoss(), 1)
	var aDone, bDone time.Duration
	k.Go("a", func(p *Proc) {
		a.Send(p, b, dataPkt(0))
		aDone = p.Now()
	})
	k.Go("b", func(p *Proc) {
		b.Send(p, a, dataPkt(1))
		bDone = p.Now()
	})
	k.Go("rxa", func(p *Proc) { a.Recv(p, -1) })
	k.Go("rxb", func(p *Proc) { b.Recv(p, -1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both finish copying at C; the first then transmits [C, C+T], the
	// second [C+T, C+2T].
	first, second := aDone, bDone
	if second < first {
		first, second = second, first
	}
	if first != cost.C()+cost.T() {
		t.Errorf("first tx done at %v, want %v", first, cost.C()+cost.T())
	}
	if second != cost.C()+2*cost.T() {
		t.Errorf("second tx done at %v, want %v (serialised)", second, cost.C()+2*cost.T())
	}
}

// drain blocks p until every transmit buffer of s is idle: the SendAsync
// transmissions issued so far have left the wire.
func drain(p *Proc, s *Station) {
	p.WaitCond(&s.txSig, -1, func() bool { return s.txFree == s.net.Cost.TxBuffers })
}

// TestStationAddr checks that stations get distinct locally administered
// unicast addresses, which the Listener keys sessions by.
func TestStationAddr(t *testing.T) {
	_, n, a, b := newTestNet(t, params.Standalone3Com(), params.NoLoss(), 1)
	c := n.AddStation("c")
	if a.Addr == b.Addr || b.Addr == c.Addr || a.Addr == c.Addr {
		t.Errorf("addresses not distinct: %x %x %x", a.Addr, b.Addr, c.Addr)
	}
	for _, s := range []*Station{a, b, c} {
		if s.Addr[0]&1 != 0 || s.Addr[0]&2 == 0 {
			t.Errorf("%s: %x is not a locally administered unicast address", s.Name, s.Addr)
		}
	}
	if got, want := stationAddr(0x123456), [addrLen]byte{0x02, 0x00, 0x5e, 0x12, 0x34, 0x56}; got != want {
		t.Errorf("stationAddr = %x, want %x", got, want)
	}
}

// SendAsync with a double-buffered interface must pipeline copies with
// transmissions: N packets leave in N·C + T when T ≤ C (Figure 3.d).
func TestDoubleBufferedPipelines(t *testing.T) {
	cost := params.DoubleBuffered(params.Standalone3Com())
	k, _, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
	const n = 8
	var lastArrival time.Duration
	k.Go("sender", func(p *Proc) {
		for i := 0; i < n; i++ {
			src.SendAsync(p, dst, dataPkt(uint32(i)))
		}
		drain(p, src)
	})
	k.Go("receiver", func(p *Proc) {
		for i := 0; i < n; i++ {
			if _, err := dst.Recv(p, -1); err != nil {
				t.Error(err)
				return
			}
		}
		lastArrival = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Last packet copied in at n·C, fully transmitted at n·C + T, arrives
	// τ later, copy-out adds C.
	want := time.Duration(n)*cost.C() + cost.T() + cost.Propagation + cost.C()
	if lastArrival != want {
		t.Errorf("last arrival %v, want %v", lastArrival, want)
	}
}

// With a single-buffered interface, SendAsync degenerates to Send spacing:
// the copy of packet k+1 cannot start until packet k has left.
func TestSingleBufferedAsyncSerialises(t *testing.T) {
	cost := params.Standalone3Com()
	k, _, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
	const n = 4
	var sendDone time.Duration
	k.Go("sender", func(p *Proc) {
		for i := 0; i < n; i++ {
			src.SendAsync(p, dst, dataPkt(uint32(i)))
		}
		drain(p, src)
		sendDone = p.Now()
	})
	k.Go("receiver", func(p *Proc) {
		for i := 0; i < n; i++ {
			dst.Recv(p, -1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(n) * (cost.C() + cost.T()); sendDone != want {
		t.Errorf("drain at %v, want %v", sendDone, want)
	}
}

func TestCountersAndTraceSpans(t *testing.T) {
	cost := params.Standalone3Com()
	k := NewKernel()
	n, err := NewNetwork(k, cost, params.NoLoss(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	n.Trace = func(s Span) { spans = append(spans, s) }
	src, dst := n.AddStation("src"), n.AddStation("dst")
	k.Go("sender", func(p *Proc) { src.Send(p, dst, dataPkt(0)) })
	k.Go("receiver", func(p *Proc) { dst.Recv(p, -1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if src.Counters.TxPackets != 1 || src.Counters.TxBytes != params.DataPacketSize {
		t.Errorf("tx counters: %+v", src.Counters)
	}
	if dst.Counters.RxPackets != 1 || dst.Counters.RxBytes != params.DataPacketSize {
		t.Errorf("rx counters: %+v", dst.Counters)
	}
	// Expect: copy-in span (src cpu), wire span, copy-out span (dst cpu).
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3: %+v", len(spans), spans)
	}
	if spans[0].Host != "src" || spans[0].Lane != LaneCPU {
		t.Errorf("span0 = %+v", spans[0])
	}
	if spans[1].Host != "net" || spans[1].Lane != LaneWire {
		t.Errorf("span1 = %+v", spans[1])
	}
	if spans[2].Host != "dst" || spans[2].Lane != LaneCPU {
		t.Errorf("span2 = %+v", spans[2])
	}
	for _, s := range spans {
		if s.End <= s.Start {
			t.Errorf("empty span %+v", s)
		}
	}
}

func TestEndpointAdapter(t *testing.T) {
	cost := params.Standalone3Com()
	k, _, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
	var elapsed time.Duration
	k.Go("sender", func(p *Proc) {
		env := NewEndpoint(p, src, dst)
		env.Compute(time.Millisecond)
		if err := env.Send(dataPkt(0)); err != nil {
			t.Error(err)
		}
		if err := env.SendAsync(dataPkt(1)); err != nil {
			t.Error(err)
		}
		drain(p, src)
		elapsed = env.Now()
	})
	k.Go("receiver", func(p *Proc) {
		env := NewEndpoint(p, dst, src)
		for i := 0; i < 2; i++ {
			if _, err := env.Recv(-1); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Millisecond + 2*(cost.C()+cost.T()); elapsed != want {
		t.Errorf("elapsed %v, want %v", elapsed, want)
	}
}

// Fuzz-ish determinism check: random protocols over a lossy link always
// produce the same final counters for the same seed.
func TestFullDeterminism(t *testing.T) {
	run := func(seed int64) (Counters, Counters, time.Duration) {
		k, _, src, dst := newTestNet(t, params.VKernel(), params.LossModel{PNet: 0.1, PIface: 0.05}, seed)
		rng := rand.New(rand.NewSource(seed))
		nPkts := 10 + rng.Intn(50)
		k.Go("sender", func(p *Proc) {
			for i := 0; i < nPkts; i++ {
				src.Send(p, dst, dataPkt(uint32(i)))
				if rng.Intn(3) == 0 {
					p.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
				}
			}
		})
		k.Go("receiver", func(p *Proc) {
			for {
				if _, err := dst.Recv(p, 30*time.Millisecond); err != nil {
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return src.Counters, dst.Counters, k.Now()
	}
	for seed := int64(0); seed < 10; seed++ {
		s1, d1, t1 := run(seed)
		s2, d2, t2 := run(seed)
		if s1 != s2 || d1 != d2 || t1 != t2 {
			t.Fatalf("seed %d not deterministic", seed)
		}
	}
}

// One broadcast transmission is heard by every other station: the wire is
// occupied once, each receiver gets its own copy, and the sender hears
// nothing (it transmitted the frame).
func TestBroadcastDelivery(t *testing.T) {
	cost := params.Standalone3Com()
	k := NewKernel()
	n, err := NewNetwork(k, cost, params.NoLoss(), 1)
	if err != nil {
		t.Fatal(err)
	}
	src := n.AddStation("src")
	var dsts []*Station
	for i := 0; i < 4; i++ {
		dsts = append(dsts, n.AddStation("dst"))
	}
	payload := []byte("heard by all")
	k.Go("sender", func(p *Proc) {
		src.SendBroadcast(p, &wire.Packet{Type: wire.TypeData, Payload: payload, VirtualSize: params.DataPacketSize})
	})
	for _, d := range dsts {
		d := d
		k.Go("receiver", func(p *Proc) {
			pkt, err := d.Recv(p, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if string(pkt.Payload) != string(payload) {
				t.Errorf("%s received %q", d.Name, pkt.Payload)
			}
			// Payload-carrying broadcast frames must not share buffers.
			pkt.Payload[0] = 'X'
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if src.Counters.TxPackets != 1 {
		t.Errorf("broadcast cost %d transmissions, want 1", src.Counters.TxPackets)
	}
	for _, d := range dsts {
		if d.Counters.RxPackets != 1 {
			t.Errorf("%s received %d packets, want 1", d.Name, d.Counters.RxPackets)
		}
	}
	if src.Counters.RxPackets != 0 || len(src.rxq) != 0 {
		t.Error("sender heard its own broadcast")
	}
}
