package simrun

import (
	"fmt"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// Server-side conformance: one LoadScenario value — a Concurrency=4 sharded
// server serving 8 seeded clients under scripted per-client
// drop/corrupt/duplicate/reorder adversaries — runs through Run (the DES)
// and RunUDP at batch 1 and 32 with the payload kept. Per-client protocol
// counters must be identical and every payload the seeded stream. Both
// substrates run the same session.Server set up by the one orchestration.

// srvConfScript returns client i's scripted adversary hook: pure functions
// of packet identity (type, seq, attempt, flags), so the event sequence —
// and therefore every counter — is independent of arrival timing and
// identical on every substrate. Recovery stays NAK-driven: the reliable
// last packet of a window is never molested.
func srvConfScript(i int) func(*wire.Packet) params.Mangle {
	mode := i % 4
	if mode == 0 {
		return nil // clean client
	}
	return func(p *wire.Packet) params.Mangle {
		if p.Type != wire.TypeData || p.Attempt != 0 || p.Flags&wire.FlagLast != 0 {
			return params.Mangle{}
		}
		switch mode {
		case 1: // lossy client
			if p.Seq%16 == 2 || p.Seq%16 == 11 {
				return params.Mangle{Drop: true}
			}
		case 2: // corrupting + duplicating client
			if p.Seq%16 == 4 {
				return params.Mangle{Corrupt: true, CorruptBit: 1357}
			}
			if p.Seq%16 == 7 {
				return params.Mangle{Duplicate: true}
			}
		case 3: // reordering + lossy client
			if p.Seq%16 == 9 {
				return params.Mangle{Hold: 2}
			}
			if p.Seq%16 == 13 {
				return params.Mangle{Drop: true}
			}
		}
		return params.Mangle{}
	}
}

// TestServerSideConformance is the acceptance pin: mixed sizes and
// strategies with wall-clock-sized timeouts, so one scenario works on both
// substrates, and identical per-client counters and seeded payloads on the
// simulator and over UDP — through the shared session layer on both sides.
func TestServerSideConformance(t *testing.T) {
	sc := LoadScenario{
		Name:        "server-conformance",
		Cost:        params.Standalone3Com(),
		N:           8,
		Bytes:       []int{20000, 27000, 34000, 41000}, // 20..41 chunks
		Strategies:  []core.Strategy{core.GoBackN, core.Selective},
		Chunk:       1000,
		Window:      16,
		Tr:          250 * time.Millisecond,
		Concurrency: 4,
		ClientAdversary: func(i int) params.Adversary {
			if s := srvConfScript(i); s != nil {
				return params.Adversary{Script: s}
			}
			return params.Adversary{}
		},
		Seed: 1000,
	}
	ref, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The scenario must actually exercise recovery and the session cap.
	recovered := 0
	for i, c := range ref.Clients {
		if !c.Completed || !c.ChecksumOK {
			t.Fatalf("sim client %d incomplete or not the seeded stream: %s", i, c.Err)
		}
		if c.Counts.Retransmits > 0 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no client needed recovery; the adversary scenario is vacuous")
	}

	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			if !udpAvailable() {
				t.Skip("no UDP loopback")
			}
			res, err := sc.RunUDP(UDP{Batch: batch, KeepData: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range res.Clients {
				if !c.Completed || !c.ChecksumOK {
					t.Fatalf("udp client %d incomplete or its bytes differ from the seeded stream: %s", i, c.Err)
				}
				if c.Counts != ref.Clients[i].Counts {
					t.Errorf("client %d counters diverge:\nsim %+v\nudp %+v", i, ref.Clients[i].Counts, c.Counts)
				}
			}
		})
	}
}
