package simrun

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// stripeHostileScript mangles first transmissions keyed purely on packet
// identity, with every event type landing inside a 16-packet stripe: each
// stripe of a striped transfer (and each 16-packet window of an unstriped
// one) sees a drop, a duplicate and a reorder hold. NAK-driven recovery
// only, so counters are timing-independent on every substrate.
func stripeHostileScript(p *wire.Packet) params.Mangle {
	if p.Type != wire.TypeData || p.Attempt != 0 {
		return params.Mangle{}
	}
	switch p.Seq % 16 {
	case 2:
		return params.Mangle{Drop: true}
	case 5:
		return params.Mangle{Duplicate: true}
	case 9:
		return params.Mangle{Hold: 2}
	}
	return params.Mangle{}
}

// TestStripedConformance pins the striping contract across substrates: a
// striped transfer (streams=4) must produce byte-identical reassembled
// payloads to streams=1, and every stripe's protocol counters must be
// identical on the simulator and over real UDP, under a seeded
// drop/duplicate/reorder adversary — with the fixed window and with each
// registered rate-control policy in the loop. This is the enforcement of
// the RateController determinism contract (ratecontrol.go): a policy whose
// window decisions read the clock would diverge here.
func TestStripedConformance(t *testing.T) {
	udpOK := true
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		udpOK = false
	} else {
		c.Close()
	}

	payload := advPayload(64000, 11) // 64 chunks -> 4 stripes of 16
	base := core.Config{
		TransferID:     1,
		Bytes:          len(payload),
		ChunkSize:      1000,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Window:         16,
		RetransTimeout: 500 * time.Millisecond,
		// Controlled transfers learn the RTO online and the estimator's
		// default 1 ms floor is tuned for a quiet LAN; under the race
		// detector a loopback response round can take longer than that,
		// and a single real timeout on the UDP leg would diverge the
		// counters from the sim. Pinning the floor at the fixed Tr keeps
		// recovery purely NAK-driven on every substrate.
		MinRTO:       500 * time.Millisecond,
		MaxAttempts:  50,
		Linger:       150 * time.Millisecond,
		ReceiverIdle: 2 * time.Second,
		Payload:      payload,
	}

	modes := []string{""} // fixed window
	modes = append(modes, core.ControllerNames()...)
	for _, controller := range modes {
		name := controller
		if name == "" {
			name = "fixed"
		}
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.Controller = controller
			sc := Scenario{
				Name:      "striped/" + name,
				Adversary: params.Adversary{Script: stripeHostileScript},
				Config:    cfg,
				Seed:      21,
			}

			reassemble := func(streams int, run func(Scenario) (Outcome, error)) ([]byte, []Counts) {
				t.Helper()
				stripes := sc.Stripes(streams)
				outs := make([]Outcome, len(stripes))
				errs := make([]error, len(stripes))
				var wg sync.WaitGroup
				for i := range stripes {
					wg.Add(1)
					// Stripes run concurrently, as the striping client
					// fans them out.
					go func(i int) {
						defer wg.Done()
						outs[i], errs[i] = run(stripes[i])
					}(i)
				}
				wg.Wait()
				whole := make([]byte, 0, len(payload))
				counts := make([]Counts, len(stripes))
				for i := range stripes {
					if errs[i] != nil {
						t.Fatalf("streams=%d stripe %d: %v", streams, i, errs[i])
					}
					if !outs[i].Completed {
						t.Fatalf("streams=%d stripe %d incomplete", streams, i)
					}
					whole = append(whole, outs[i].Data...)
					counts[i] = outs[i].Counts
					if outs[i].Retransmits == 0 {
						t.Errorf("streams=%d stripe %d: script forced no recovery; scenario is vacuous", streams, i)
					}
				}
				return whole, counts
			}

			sim4, simCounts4 := reassemble(4, Scenario.RunSim)
			sim1, _ := reassemble(1, Scenario.RunSim)
			if !bytes.Equal(sim4, payload) {
				t.Fatal("sim streams=4 reassembly differs from the payload")
			}
			if !bytes.Equal(sim4, sim1) {
				t.Fatal("sim streams=4 and streams=1 reassemble differently")
			}

			if !udpOK {
				t.Skip("no UDP loopback: sim-only conformance")
			}
			udp4, udpCounts4 := reassemble(4, Scenario.RunUDP)
			if !bytes.Equal(udp4, payload) {
				t.Fatal("udp streams=4 reassembly differs from the payload")
			}
			for i := range simCounts4 {
				if udpCounts4[i] != simCounts4[i] {
					t.Errorf("stripe %d counters diverge:\nsim %+v\nudp %+v", i, simCounts4[i], udpCounts4[i])
				}
			}
			udp1, udpCounts1 := reassemble(1, Scenario.RunUDP)
			if !bytes.Equal(udp1, payload) {
				t.Fatal("udp streams=1 reassembly differs from the payload")
			}
			// The unstriped transfer conforms across substrates too, so the
			// streams=4 vs streams=1 comparison is anchored on both sides.
			sim1Counts := simStripeCounts(t, sc, 1)
			if udpCounts1[0] != sim1Counts[0] {
				t.Errorf("streams=1 counters diverge:\nsim %+v\nudp %+v", sim1Counts[0], udpCounts1[0])
			}
		})
	}
}

// simStripeCounts runs the scenario's stripes on the simulator and returns
// their counters.
func simStripeCounts(t *testing.T, sc Scenario, streams int) []Counts {
	t.Helper()
	stripes := sc.Stripes(streams)
	counts := make([]Counts, len(stripes))
	for i, ssc := range stripes {
		out, err := ssc.RunSim()
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = out.Counts
	}
	return counts
}

// TestAdaptiveControllerDeterministicSim pins the controller-in-the-loop
// property the conformance above relies on: an adaptive transfer under a
// probabilistic seeded adversary is bit-deterministic on the simulator
// (same seed, same trajectory, same counters), and the controller actually
// engages.
func TestAdaptiveControllerDeterministicSim(t *testing.T) {
	payload := advPayload(256_000, 13) // 256 chunks
	cfg := core.Config{
		TransferID:     3,
		Bytes:          len(payload),
		ChunkSize:      1000,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Controller:     core.ControllerAIMD,
		RetransTimeout: 100 * time.Millisecond,
		MaxAttempts:    200,
		Linger:         150 * time.Millisecond,
		ReceiverIdle:   5 * time.Second,
		Payload:        payload,
	}
	sc := Scenario{
		Name:      "adaptive-des",
		Adversary: params.Adversary{Loss: params.LossModel{PNet: 0.02}},
		Config:    cfg,
		Seed:      5,
	}
	a, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("adaptive sim run is not deterministic:\n%+v\n%+v", a.Counts, b.Counts)
	}
	if !a.Completed || !a.IntactPayload(payload) {
		t.Fatal("adaptive transfer failed under 2% loss")
	}
	if a.Retransmits == 0 {
		t.Error("no recovery at 2% loss; scenario is vacuous")
	}

	// The adaptive sender must beat the fixed-window sender's elapsed time
	// under the same seeded loss: the learned Tr turns silent-loss stalls
	// from 100 ms into response-time scale.
	fixed := sc
	fixed.Config.Controller = ""
	fixed.Config.Window = 128
	av, fx := simElapsed(t, sc), simElapsed(t, fixed)
	if av >= fx {
		t.Errorf("adaptive elapsed %v not better than fixed %v under loss", av, fx)
	}
}

// simElapsed runs the scenario once on the simulator and returns the
// sender's virtual elapsed time.
func simElapsed(t *testing.T, sc Scenario) time.Duration {
	t.Helper()
	res, err := Transfer(sc.Config, sc.Options())
	if err != nil || res.Failed() {
		t.Fatal(err, res.SendErr, res.RecvErr)
	}
	return res.Send.Elapsed
}

// sparseDataLoss drops about one data transmission in a hundred, chosen by
// a seeded hash of the packet's identity (transfer, sequence, attempt), so
// every substrate loses the same packets and a retransmission draws afresh.
// Control packets pass: a lost ack's re-ack would share its identity.
func sparseDataLoss(seed uint64) func(*wire.Packet) params.Mangle {
	return func(p *wire.Packet) params.Mangle {
		if p.Type != wire.TypeData {
			return params.Mangle{}
		}
		h := seed ^ uint64(p.Trans)<<40 ^ uint64(p.Seq)<<8 ^ uint64(p.Attempt)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return params.Mangle{Drop: h%100 == 0}
	}
}

// A selective striped transfer under 1 % random loss takes the same
// controller trajectory on the simulator and over real UDP under every
// policy: every stripe's counters and its whole ControllerStats are
// identical on both substrates. aimd's are pinned here for one seed: sparse
// windows (stray drops, and a lost reliable last that timed out) hold the
// window. Stripes of 112 packets keep every window at or under 64 packets,
// which the default socket buffers carry without a real drop.
func TestStripedSparseLossConformance(t *testing.T) {
	payload := advPayload(896_000, 17) // 896 chunks -> 8 stripes of 112
	base := Scenario{
		Adversary: params.Adversary{Script: sparseDataLoss(23)},
		Config: core.Config{
			TransferID:     1,
			Bytes:          len(payload),
			ChunkSize:      1000,
			Protocol:       core.Blast,
			Strategy:       core.Selective,
			Window:         16,
			RetransTimeout: 500 * time.Millisecond,
			// As in TestStripedConformance: only a lost reliable last may
			// time out, on every substrate.
			MinRTO:       500 * time.Millisecond,
			MaxAttempts:  50,
			Linger:       150 * time.Millisecond,
			ReceiverIdle: 3 * time.Second,
			Payload:      payload,
		},
	}
	stat := func(windows, growths, holds, final int) core.ControllerStats {
		return core.ControllerStats{Policy: core.ControllerAIMD, Windows: windows, Growths: growths, Holds: holds, FinalWindow: final}
	}
	// Seed 23 times out once each on stripes 0 and 2 (a lost reliable
	// last re-sent alone) and drops a stray packet or few everywhere.
	aimd := []core.ControllerStats{stat(5, 1, 4, 32), stat(3, 2, 1, 64), stat(3, 2, 1, 64), stat(3, 2, 1, 64),
		stat(4, 2, 2, 64), stat(3, 2, 1, 64), stat(3, 2, 1, 64), stat(4, 3, 1, 128)}
	udpOK := true
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		udpOK = false
	} else {
		c.Close()
	}

	for _, policy := range core.ControllerNames() {
		t.Run(policy, func(t *testing.T) {
			sc := base
			sc.Name = "striped-" + policy + "-loss1"
			sc.Config.Controller = policy
			stripes := sc.Stripes(8)
			run := func(name string, runner func(Scenario) (Outcome, error)) []Outcome {
				outs := make([]Outcome, len(stripes))
				for i, ssc := range stripes {
					out, err := runner(ssc)
					if err != nil {
						t.Fatalf("%s stripe %d: %v", name, i, err)
					}
					if !out.Completed || !out.IntactPayload(ssc.Config.Payload) || out.Controller == nil {
						t.Fatalf("%s stripe %d: completed %v, intact %v, controller %v", name, i,
							out.Completed, out.IntactPayload(ssc.Config.Payload), out.Controller)
					}
					outs[i] = out
				}
				return outs
			}
			sim := run("sim", Scenario.RunSim)
			if policy == core.ControllerAIMD {
				for i, out := range sim {
					if *out.Controller != aimd[i] {
						t.Errorf("sim stripe %d: controller %+v, pinned %+v", i, *out.Controller, aimd[i])
					}
				}
				if sim[0].Timeouts != 1 || sim[2].Timeouts != 1 {
					t.Errorf("sim stripes 0 and 2 timed out %d and %d times, want the one each the seed pins", sim[0].Timeouts, sim[2].Timeouts)
				}
			}
			if !udpOK {
				t.Skip("no UDP loopback: sim-only conformance")
			}
			for i, out := range run("udp", Scenario.RunUDP) {
				if out.Counts != sim[i].Counts {
					t.Errorf("stripe %d counters diverge:\nsim %+v\nudp %+v", i, sim[i].Counts, out.Counts)
				}
				if *out.Controller != *sim[i].Controller {
					t.Errorf("stripe %d controller diverges:\nsim %+v\nudp %+v", i, *sim[i].Controller, *out.Controller)
				}
			}
		})
	}
}
