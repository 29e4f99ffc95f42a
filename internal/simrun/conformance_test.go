package simrun

import (
	"fmt"
	"net"
	"testing"
	"time"

	"blastlan/internal/analytic"
	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/stats"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// Conformance matrix: every protocol on every hardware preset at several
// sizes must match its §2.1.3 closed form. This is the regression net that
// keeps the simulator and the analytic model from drifting apart.
func TestConformanceMatrix(t *testing.T) {
	models := []params.CostModel{
		params.Standalone3Com(),
		params.VKernel(),
		params.ExcelanDMA(),
		params.ModernGigabit(),
	}
	sizes := []int{1, 7, 64}

	type variant struct {
		proto   core.Protocol
		formula func(params.CostModel, int) time.Duration
		// exact requires equality up to the 2τ propagation the formulas
		// ignore; otherwise a 1% relative tolerance applies (T_SW's tail
		// idealisation).
		exact bool
	}
	variants := []variant{
		{core.StopAndWait, analytic.TimeStopAndWait, true},
		{core.Blast, analytic.TimeBlast, true},
		{core.SlidingWindow, analytic.TimeSlidingWindow, false},
	}

	for _, m := range models {
		for _, n := range sizes {
			for _, v := range variants {
				name := fmt.Sprintf("%s/%s/n=%d", m.Name, v.proto, n)
				t.Run(name, func(t *testing.T) {
					cfg := core.Config{
						TransferID:     1,
						Bytes:          n * 1024,
						Protocol:       v.proto,
						Strategy:       core.GoBackN,
						RetransTimeout: 10 * time.Second,
					}
					res, err := Transfer(cfg, Options{Cost: m})
					if err != nil || res.Failed() {
						t.Fatal(err, res.SendErr, res.RecvErr)
					}
					want := v.formula(m, n)
					got := res.Send.Elapsed
					if v.proto == core.SlidingWindow && n == 1 {
						// Documented deviation: the paper's T_SW formula
						// undercounts one ack copy at N=1. A 1-packet
						// transfer is the same serial exchange under every
						// protocol; assert that invariant instead.
						if exact := analytic.TimeStopAndWait(m, 1) + 2*m.Propagation; got != exact {
							t.Errorf("1-packet SW = %v, want the universal exchange %v", got, exact)
						}
						return
					}
					if v.exact {
						// The formulas ignore propagation; SAW pays 2τ per
						// packet, blast 2τ per transfer.
						slack := 2 * m.Propagation
						if v.proto == core.StopAndWait {
							slack = time.Duration(2*n) * m.Propagation
						}
						if got != want+slack {
							t.Errorf("sim %v, formula %v + slack %v", got, want, slack)
						}
						return
					}
					if re := stats.RelErr(float64(got), float64(want)); re > 0.05 {
						t.Errorf("sim %v vs formula %v (rel err %.4f)", got, want, re)
					}
				})
			}
			// Double-buffered blast against its two-regime formula.
			md := params.DoubleBuffered(m)
			t.Run(fmt.Sprintf("%s/blast-dblbuf/n=%d", m.Name, n), func(t *testing.T) {
				cfg := core.Config{
					TransferID:     1,
					Bytes:          n * 1024,
					Protocol:       core.BlastAsync,
					Strategy:       core.GoBackN,
					RetransTimeout: 10 * time.Second,
				}
				res, err := Transfer(cfg, Options{Cost: md})
				if err != nil || res.Failed() {
					t.Fatal(err, res.SendErr, res.RecvErr)
				}
				want := analytic.TimeBlastDouble(md, n) + 2*md.Propagation
				if res.Send.Elapsed != want {
					t.Errorf("sim %v, formula %v", res.Send.Elapsed, want)
				}
			})
		}
	}
}

// hostileNakScript mangles first transmissions only, keyed purely on packet
// identity (type, sequence, attempt) so the event sequence is independent of
// arrival order and therefore identical on every substrate. Recovery is
// entirely NAK-driven — the reliable last packet always gets through — so no
// retransmission timer fires and the counters are timing-independent.
func hostileNakScript(p *wire.Packet) params.Mangle {
	if p.Type != wire.TypeData || p.Attempt != 0 {
		return params.Mangle{}
	}
	switch p.Seq {
	case 2:
		return params.Mangle{Drop: true}
	case 5:
		return params.Mangle{Corrupt: true, CorruptBit: 91}
	case 7:
		return params.Mangle{Duplicate: true}
	case 9:
		return params.Mangle{Hold: 2}
	}
	return params.Mangle{}
}

// hostileAdjacentScript stresses the overtaking bookkeeping: a hold+dup pair
// while an earlier hold is still pending (the duplicate must go out ahead of
// the holds its arrival matures, on every substrate), a duplicate of a packet
// that is itself held (the copy overtakes its twin), and a drop immediately
// behind another hold (the dropped packet must still count as overtaking even
// though it never arrives).
func hostileAdjacentScript(p *wire.Packet) params.Mangle {
	if p.Type != wire.TypeData || p.Attempt != 0 {
		return params.Mangle{}
	}
	switch p.Seq {
	case 4:
		return params.Mangle{Hold: 1}
	case 5:
		return params.Mangle{Duplicate: true, Hold: 2}
	case 9:
		return params.Mangle{Hold: 2}
	case 10:
		return params.Mangle{Drop: true}
	}
	return params.Mangle{}
}

// hostileLosslessScript reorders and duplicates without losing anything, for
// strategies (full-no-nak) and protocols (stop-and-wait) whose loss recovery
// necessarily runs through a retransmission timer.
func hostileLosslessScript(p *wire.Packet) params.Mangle {
	if p.Type != wire.TypeData || p.Attempt != 0 {
		return params.Mangle{}
	}
	switch p.Seq {
	case 3:
		return params.Mangle{Duplicate: true}
	case 9:
		return params.Mangle{Hold: 2}
	}
	return params.Mangle{}
}

// sawDupScript duplicates one packet of a stop-and-wait transfer: the
// receiver's duplicate-suppression path (core/saw.go recvInOrder) must count
// and re-acknowledge it identically everywhere. Holds are useless against
// stop-and-wait (nothing follows to overtake the held packet), so this is
// the protocol's whole conformance surface.
func sawDupScript(p *wire.Packet) params.Mangle {
	if p.Type == wire.TypeData && p.Attempt == 0 && p.Seq == 3 {
		return params.Mangle{Duplicate: true}
	}
	return params.Mangle{}
}

// twoPartyRow is one substrate a two-party Scenario runs on: the simulator
// (the reference), the V kernel, or UDP loopback at a syscall batch size and
// a transmit-tier cap on both endpoints.
type twoPartyRow struct {
	name  string
	batch int         // UDP rows: the batch size (> 0 marks a UDP row)
	tier  udplan.Tier // UDP rows: the tier cap (TierAuto: probe)
	run   func(Scenario) (Outcome, error)
}

// The two-party table, one group of rows per test: the virtual-time
// substrates; the UDP datapath at batch 1 (the single-syscall geometry), 4
// (several flushes per window) and 32 (a 16-packet window in one flush);
// and each transmit tier at batch 32, where GSO really sends one
// superbuffer per window.
var (
	virtualRows = []twoPartyRow{
		{name: "sim", run: Scenario.RunSim},
		{name: "vkernel", run: Scenario.RunVKernel},
	}
	batchRows = []twoPartyRow{
		{"udp-batch1", 1, udplan.TierAuto, Scenario.RunUDP},
		{"udp-batch4", 4, udplan.TierAuto, Scenario.RunUDP},
		{"udp-batch32", 32, udplan.TierAuto, Scenario.RunUDP},
	}
	tierRows = []twoPartyRow{
		{"udp-writeto", 32, udplan.TierWriteTo, Scenario.RunUDP},
		{"udp-mmsg", 32, udplan.TierMmsg, Scenario.RunUDP},
		{"udp-gso", 32, udplan.TierGSO, Scenario.RunUDP},
	}
)

// gsoAvailable reports whether the GSO tier actually engages on this
// kernel, by probing a scratch endpoint pair the same way RunUDP does.
func gsoAvailable() bool {
	cs, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	defer cs.Close()
	ss, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	defer ss.Close()
	e := udplan.NewEndpoint(cs, ss.LocalAddr())
	e.SetBatch(32)
	return e.Tier() == udplan.TierGSO
}

// outcome runs sc on the row. UDP rows skip without loopback, and the GSO
// row where the tier does not engage (an old kernel, a forced-fallback run).
func (row twoPartyRow) outcome(t *testing.T, sc Scenario) Outcome {
	t.Helper()
	if row.batch > 0 && !udpAvailable() {
		t.Skip("no UDP loopback")
	}
	if row.tier == udplan.TierGSO && !gsoAvailable() {
		t.Skip("GSO tier unavailable (needs Linux >= 4.18)")
	}
	sc.Batch, sc.Tier = row.batch, row.tier
	out, err := row.run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scriptedConformance runs the six scripted drop+corrupt+duplicate+reorder
// cases on rows and holds every row to the simulator: byte-identical
// delivered payloads and identical protocol counters (packets, duplicates,
// retransmits, acks, naks). This is the contract that makes one Scenario
// definition meaningful everywhere — and that syscall batching and
// segmentation offload are invisible to the protocol: whether a window
// leaves as one UDP_SEGMENT superbuffer, a sendmmsg batch or a WriteTo
// loop, the adversary sees the same frames and the engines count the same
// events.
func scriptedConformance(t *testing.T, rows []twoPartyRow) {
	payload := advPayload(16000, 9)
	baseCfg := func(p core.Protocol, s core.Strategy) core.Config {
		return core.Config{
			TransferID:     1,
			Bytes:          len(payload),
			ChunkSize:      1000, // 16 packets
			Protocol:       p,
			Strategy:       s,
			RetransTimeout: 500 * time.Millisecond,
			MaxAttempts:    50,
			Linger:         150 * time.Millisecond,
			ReceiverIdle:   2 * time.Second,
			Payload:        payload,
		}
	}
	cases := []struct {
		name   string
		cfg    core.Config
		script func(*wire.Packet) params.Mangle
		// wantRetransmits asserts the script actually forced recovery.
		wantRetransmits bool
	}{
		{"blast/full-nak", baseCfg(core.Blast, core.FullNak), hostileNakScript, true},
		{"blast/go-back-n", baseCfg(core.Blast, core.GoBackN), hostileNakScript, true},
		{"blast/selective", baseCfg(core.Blast, core.Selective), hostileNakScript, true},
		{"blast/go-back-n-adjacent", baseCfg(core.Blast, core.GoBackN), hostileAdjacentScript, true},
		{"blast/full-no-nak", baseCfg(core.Blast, core.FullNoNak), hostileLosslessScript, false},
		{"saw", baseCfg(core.StopAndWait, core.GoBackN), sawDupScript, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := Scenario{Name: c.name, Adversary: params.Adversary{Script: c.script}, Config: c.cfg, Seed: 7}
			ref, err := sc.RunSim()
			if err != nil {
				t.Fatal(err)
			}
			if c.wantRetransmits && ref.Retransmits == 0 {
				t.Error("script forced no retransmissions; scenario is vacuous")
			}
			if ref.Duplicates == 0 {
				t.Error("script injected no observable duplicates; scenario is vacuous")
			}
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					out := row.outcome(t, sc)
					if !out.Completed || !out.IntactPayload(payload) {
						t.Errorf("completed=%v payload intact=%v", out.Completed, out.IntactPayload(payload))
					}
					if out.Counts != ref.Counts {
						t.Errorf("counters diverge from sim:\nsim %+v\n%s %+v", ref.Counts, row.name, out.Counts)
					}
				})
			}
		})
	}
}

func TestCrossSubstrateConformance(t *testing.T) { scriptedConformance(t, virtualRows) }

func TestBatchedPathConformance(t *testing.T) { scriptedConformance(t, batchRows) }

func TestGSOTierConformance(t *testing.T) { scriptedConformance(t, tierRows) }

// seededConformance is the acceptance scenario on rows: one seeded
// adversary with loss, reorder depth ≥ 2, duplication, corruption and
// jitter must deliver byte-identical payloads for all four blast
// strategies. (Counters legitimately differ here — the substrates see
// different arrival orders, so the seeded draws land on different packets;
// the scripted cases are what pin counters.)
func seededConformance(t *testing.T, rows []twoPartyRow) {
	adv := params.Adversary{
		Loss:          params.LossModel{PNet: 0.01},
		ReorderProb:   0.05,
		ReorderDepth:  2,
		DuplicateProb: 0.04,
		CorruptProb:   0.03,
		JitterMax:     300 * time.Microsecond,
	}
	payload := advPayload(16000, 3)
	for _, s := range []core.Strategy{core.FullNoNak, core.FullNak, core.GoBackN, core.Selective} {
		t.Run(s.String(), func(t *testing.T) {
			sc := Scenario{
				Name:      "seeded-" + s.String(),
				Adversary: adv,
				Config: core.Config{
					TransferID:     1,
					Bytes:          len(payload),
					ChunkSize:      1000,
					Protocol:       core.Blast,
					Strategy:       s,
					RetransTimeout: 80 * time.Millisecond,
					MaxAttempts:    200,
					Linger:         120 * time.Millisecond,
					ReceiverIdle:   3 * time.Second,
					Payload:        payload,
				},
				Seed: int64(s) + 11,
			}
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					if !row.outcome(t, sc).IntactPayload(payload) {
						t.Error("payload corrupted")
					}
				})
			}
		})
	}
}

func TestScenarioSeededAllSubstrates(t *testing.T) { seededConformance(t, virtualRows) }

func TestBatchedSeededAdversaryIdenticalPayload(t *testing.T) { seededConformance(t, batchRows) }

func TestGSOTierSeededAdversaryIdenticalPayload(t *testing.T) { seededConformance(t, tierRows) }

// Property across random synthetic hardware: the four §2.1.3 formulas keep
// their ordering T_dbl ≤ T_B ≤ T_SW ≤ T_SAW, and the simulator agrees with
// the blast formula exactly, whatever the copy/wire ratio.
func TestConformanceRandomHardware(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		// Deterministic pseudo-random models spanning C/T from ~0.05 to ~20.
		dataCopy := time.Duration(50+137*trial%3000) * time.Microsecond
		ackCopy := dataCopy / time.Duration(4+trial%13)
		bw := int64(4_000_000 + 1_000_000*(trial%17))
		m := params.NewCostModel(fmt.Sprintf("rand-%d", trial),
			dataCopy, ackCopy, bw, time.Duration(trial%30)*time.Microsecond)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := 3 + trial%40

		dbl := analytic.TimeBlastDouble(params.DoubleBuffered(m), n)
		b := analytic.TimeBlast(m, n)
		sw := analytic.TimeSlidingWindow(m, n)
		saw := analytic.TimeStopAndWait(m, n)
		if !(dbl <= b && b <= sw && sw <= saw) {
			t.Fatalf("trial %d: formula ordering violated: %v %v %v %v", trial, dbl, b, sw, saw)
		}

		cfg := core.Config{
			TransferID:     1,
			Bytes:          n * 1024,
			Protocol:       core.Blast,
			Strategy:       core.GoBackN,
			RetransTimeout: 30 * time.Second,
		}
		res, err := Transfer(cfg, Options{Cost: m})
		if err != nil || res.Failed() {
			t.Fatalf("trial %d: %v %v", trial, err, res.SendErr)
		}
		if want := b + 2*m.Propagation; res.Send.Elapsed != want {
			t.Fatalf("trial %d (%s, n=%d): sim %v != formula %v",
				trial, m.Name, n, res.Send.Elapsed, want)
		}
	}
}
