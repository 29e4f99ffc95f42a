package simrun

import (
	"reflect"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
)

// testSweep is a sweep sized for CI: small transfers, the full policy ×
// adversary cross, two contention levels.
func testSweep() ContentionSweep {
	return ContentionSweep{
		Clients: []int{1, 8},
		Bytes:   64 << 10,
		Seed:    17,
	}
}

// The judged table is bit-identical at any worker count: every cell is a
// deterministic DES run seeded by its enumeration index, merged in index
// order.
func TestContentionSweepDeterministicAtAnyWorkerCount(t *testing.T) {
	seq, err := testSweep().Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := testSweep().Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d sweep differs from sequential:\nseq %+v\npar %+v", workers, seq, par)
		}
	}
}

// cellOf finds one cell of the sweep result.
func cellOf(t *testing.T, cells []ContentionCell, policy, adv string, clients int) ContentionCell {
	t.Helper()
	for _, c := range cells {
		if c.Policy == policy && c.Adversary == adv && c.Clients == clients {
			return c
		}
	}
	t.Fatalf("no cell (%q, %q, %d) in sweep", policy, adv, clients)
	return ContentionCell{}
}

// Every policy delivers every payload intact in every cell. And jitter is
// not loss: the jitter adversary drops nothing, so every retransmission in
// its cells is spurious — a packet the reordering let the FlagLast overtake.
// The blast receiver learns a reorder window from the first NAK a late
// packet proves wrong and holds its later verdicts for it, so the jitter
// cells re-send at most an eighth of the packets they need (the receiver
// that answered every gapped FlagLast at once re-sent over a sixth).
func TestContentionSweepJudgesPolicies(t *testing.T) {
	sw := testSweep()
	cells, err := sw.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	needed, spurious := 0, 0
	for _, c := range cells {
		if c.Completed != c.Clients {
			t.Errorf("cell %s/%s/%d: %d of %d clients completed", c.PolicyName(), c.Adversary, c.Clients, c.Completed, c.Clients)
		}
		if c.Adversary == "jitter" {
			needed += c.Clients * sw.Bytes / params.DataPacketSize
			spurious += c.Retrans
		}
	}
	if spurious*8 > needed {
		t.Errorf("loss-free jitter cells re-sent %d of the %d packets they need, want at most an eighth", spurious, needed)
	}
}

// Same-policy contention is fair: 8 clients of one policy on a clean fabric
// share the server with Jain's index >= 0.9 — no policy starves its own kind.
func TestContentionSweepFairness(t *testing.T) {
	sw := testSweep()
	sw.Adversaries = []NamedAdversary{{Name: "clean"}}
	sw.Clients = []int{8}
	cells, err := sw.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Fairness < 0.9 {
			t.Errorf("policy %s: 8-client clean fairness %.3f < 0.9", c.PolicyName(), c.Fairness)
		}
	}
}

// The sweep's default gauntlet matches the experiment contract: three
// adversaries, three contention levels, every registered policy.
func TestContentionSweepDefaults(t *testing.T) {
	sw := ContentionSweep{}.withDefaults()
	if !reflect.DeepEqual(sw.Policies, core.ControllerNames()) {
		t.Errorf("default policies %v", sw.Policies)
	}
	advs := make([]string, len(sw.Adversaries))
	for i, a := range sw.Adversaries {
		advs[i] = a.Name
	}
	if !reflect.DeepEqual(advs, []string{"clean", "loss1", "jitter"}) {
		t.Errorf("default adversaries %v", advs)
	}
	if !reflect.DeepEqual(sw.Clients, []int{1, 8, 64}) {
		t.Errorf("default clients %v", sw.Clients)
	}
	if sw.Arrival != 2*time.Millisecond {
		t.Errorf("default arrival %v", sw.Arrival)
	}
}
