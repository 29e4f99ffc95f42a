package simrun

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/session"
)

// Fan-out conformance: the 1-source → 4-relay → 8-receiver stripe tree is
// one FanoutScenario, run by the one orchestration on the discrete-event
// simulator and over real UDP loopback at two batch sizes. Per-receiver and
// per-relay protocol counters and the receivers' assembled payloads must be
// identical. The network is clean and timeouts generous on both sides, so
// every counter is purely data-driven — any divergence is a protocol-layer
// bug, not scheduling noise.

const (
	fanConfBytes = 64000
	fanConfChunk = 1000
)

func fanConfScenario() FanoutScenario {
	return FanoutScenario{
		Name:   "fanout-conformance",
		N:      8,
		Relays: 4,
		Bytes:  fanConfBytes,
		Chunk:  fanConfChunk,
		Tr:     500 * time.Millisecond,
		Seed:   5,
	}
}

// fanoutSubstrate is one row of the conformance table's substrate axis.
type fanoutSubstrate struct {
	name string
	run  func(t *testing.T) (FanoutResult, error)
}

// fanoutSubstrates binds sc to every substrate. The UDP rows skip without
// loopback networking.
func fanoutSubstrates(sc FanoutScenario) []fanoutSubstrate {
	udp := func(batch int) func(t *testing.T) (FanoutResult, error) {
		return func(t *testing.T) (FanoutResult, error) {
			if !udpAvailable() {
				t.Skip("no UDP loopback")
			}
			return sc.RunUDP(UDP{Batch: batch, KeepData: true})
		}
	}
	return []fanoutSubstrate{
		{"des", func(*testing.T) (FanoutResult, error) { return sc.Run() }},
		{"batch1", udp(1)},
		{"batch32", udp(32)},
	}
}

// TestFanoutConformance is the acceptance pin: the 1→8 stripe-relay tree
// produces identical per-receiver and per-relay protocol counters and
// byte-identical payloads on the simulator and over UDP loopback.
func TestFanoutConformance(t *testing.T) {
	expected := core.SeededPayload(int64(fanConfBytes), fanConfBytes, fanConfChunk)
	var ref FanoutResult // the DES row: what every other substrate must equal
	for _, sub := range fanoutSubstrates(fanConfScenario()) {
		t.Run(sub.name, func(t *testing.T) {
			res, err := sub.run(t)
			if err != nil {
				t.Fatal(err)
			}
			// Non-vacuity: every receiver holds the seeded object and the
			// source transmitted it ~once (each stripe to exactly one relay).
			for ki, rr := range res.Relays {
				if !rr.Completed {
					t.Fatalf("relay %d uplink incomplete: %s", ki, rr.Err)
				}
			}
			if want := fanConfBytes / fanConfChunk; res.SourceDataSent != want {
				t.Fatalf("source sent %d data packets, want %d (~1x the object)", res.SourceDataSent, want)
			}
			for i, r := range res.Receivers {
				if !r.Completed || !r.ChecksumOK {
					t.Fatalf("receiver %d incomplete: %s", i, r.Err)
				}
				if !bytes.Equal(r.Data, expected) {
					t.Fatalf("receiver %d payload differs from the seeded stream", i)
				}
			}
			if ref.Receivers == nil {
				ref = res
				return
			}
			for i, r := range res.Receivers {
				if !bytes.Equal(r.Data, ref.Receivers[i].Data) {
					t.Errorf("receiver %d payload differs between sim and udp", i)
				}
				if r.Counts != ref.Receivers[i].Counts {
					t.Errorf("receiver %d counters diverge:\nsim %+v\nudp %+v", i, ref.Receivers[i].Counts, r.Counts)
				}
			}
			for ki, rr := range res.Relays {
				if rr.Counts != ref.Relays[ki].Counts {
					t.Errorf("relay %d counters diverge:\nsim %+v\nudp %+v", ki, ref.Relays[ki].Counts, rr.Counts)
				}
			}
		})
	}
}

// TestFanoutBaselineConformance runs the Relays == 0 baseline — N
// independent whole-object pulls, the shape the tree is judged against — on
// every substrate: all receivers complete and the source pays N × the
// object.
func TestFanoutBaselineConformance(t *testing.T) {
	sc := fanConfScenario()
	sc.Relays = 0
	for _, sub := range fanoutSubstrates(sc) {
		t.Run(sub.name, func(t *testing.T) {
			res, err := sub.run(t)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != sc.N {
				t.Fatalf("completed %d/%d receivers", res.Completed, sc.N)
			}
			if want := sc.N * fanConfBytes / fanConfChunk; res.SourceDataSent != want {
				t.Errorf("source sent %d data packets, want %d (N x the object)", res.SourceDataSent, want)
			}
		})
	}
}

// TestFanoutStrideGuard is the regression for the DES fan-out silently
// miscounting past session.FanoutStripeStride relays: receiver 0's stripe
// 16 and receiver 1's stripe 0 share a transfer ID, so the sender-side join
// credited one with the other's packets (DataSent 71 against DataRecv 70 on
// a clean network) and Run returned nil. One stripe too many is an error on
// every substrate, before any host exists; the stride itself still runs.
func TestFanoutStrideGuard(t *testing.T) {
	sc := FanoutScenario{Name: "fanout-stride", N: 3, Bytes: 70000, Chunk: 1000, Tr: 500 * time.Millisecond}
	for _, relays := range []int{17, 16} {
		sc.Relays = relays
		for _, sub := range fanoutSubstrates(sc) {
			t.Run(fmt.Sprintf("relays%d/%s", relays, sub.name), func(t *testing.T) {
				res, err := sub.run(t)
				if relays > session.FanoutStripeStride {
					if err == nil {
						t.Fatalf("ran (receiver 0 counts %+v), want the stride error", res.Receivers[0].Counts)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed != 3 {
					t.Fatalf("completed %d/3 receivers at the stride", res.Completed)
				}
				for i, r := range res.Receivers {
					if r.Counts.DataSent != 70 || r.Counts.DataRecv != 70 {
						t.Errorf("receiver %d: DataSent %d DataRecv %d, want 70 and 70", i, r.Counts.DataSent, r.Counts.DataRecv)
					}
				}
			})
		}
	}
}
