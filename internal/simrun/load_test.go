package simrun

import (
	"reflect"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
)

// loadScenario64 is the acceptance scenario: 64 concurrent seeded clients
// with staggered arrivals, mixed sizes and strategies, against one sharded
// simulated server.
func loadScenario64() LoadScenario {
	return LoadScenario{
		Name:        "load64",
		N:           64,
		Bytes:       []int{16 << 10, 64 << 10, 256 << 10},
		Strategies:  []core.Strategy{core.GoBackN, core.Selective, core.FullNak},
		Arrival:     200 * time.Millisecond,
		Concurrency: 8,
		Seed:        7,
	}
}

// requireWorkerInvariant runs n trials of run through Pool, trial t seeded
// seed+t, at 1, 2, 4 and 8 workers, and fails unless every worker count
// yields the results of 1 worker.
func requireWorkerInvariant[R any](t *testing.T, n int, seed int64, run func(seed int64) (R, error)) {
	t.Helper()
	var serial []R
	for _, workers := range []int{1, 2, 4, 8} {
		got := make([]R, n)
		if err := Pool(n, workers, func(_, i int) (err error) {
			got[i], err = run(seed + int64(i))
			return err
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if serial == nil {
			serial = got
		} else if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from 1 worker:\n  1: %+v\n  %d: %+v", workers, serial, workers, got)
		}
	}
}

// TestLoadScenarioCompletes pins the basic contract: every client's pull
// completes with an intact payload, the server served them all, and the
// fairness index is sane.
func TestLoadScenarioCompletes(t *testing.T) {
	sc := LoadScenario{
		Name:        "load8",
		N:           8,
		Bytes:       []int{32 << 10, 96 << 10},
		Arrival:     50 * time.Millisecond,
		Concurrency: 4,
		Seed:        3,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.N || res.Served != sc.N {
		t.Fatalf("completed %d served %d, want %d", res.Completed, res.Served, sc.N)
	}
	for _, c := range res.Clients {
		if !c.ChecksumOK {
			t.Errorf("client %d: checksum mismatch (bytes %d)", c.Client, c.Bytes)
		}
		if c.Counts.DataSent == 0 || c.Counts.DataRecv == 0 {
			t.Errorf("client %d: empty counters %+v", c.Client, c.Counts)
		}
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness %v out of range", res.Fairness)
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan %v", res.Makespan)
	}
}

// TestLoadScenarioCapRecovery pins that clients beyond the session cap
// recover through REQ retransmission: with a cap of 2 and a thundering
// herd of 8, everyone still completes.
func TestLoadScenarioCapRecovery(t *testing.T) {
	sc := LoadScenario{
		Name:        "cap2",
		N:           8,
		Bytes:       []int{48 << 10},
		Concurrency: 2,
		Seed:        11,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.N {
		t.Fatalf("completed %d of %d under cap 2", res.Completed, sc.N)
	}
}

// TestLoadScenarioAdversarial runs the herd under a per-client seeded
// drop/duplicate adversary: everyone must still complete, with recovery
// visibly engaged.
func TestLoadScenarioAdversarial(t *testing.T) {
	sc := LoadScenario{
		Name:        "load-adv",
		N:           12,
		Bytes:       []int{64 << 10},
		Arrival:     20 * time.Millisecond,
		Concurrency: 4,
		Adversary: params.Adversary{
			Loss:          params.LossModel{PNet: 0.02},
			DuplicateProb: 0.01,
		},
		Seed: 19,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.N {
		t.Fatalf("completed %d of %d under adversary", res.Completed, sc.N)
	}
	if res.Agg.Retransmits == 0 {
		t.Error("no retransmissions under 2% loss; scenario is vacuous")
	}
}

// TestLoadScenarioDeterministic is the acceptance regression: the 64-client
// scenario is bit-identical run to run (the DES handoff schedule admits no
// nondeterminism at any GOMAXPROCS), and a batch of seeded trials yields
// bit-identical results at any worker count.
func TestLoadScenarioDeterministic(t *testing.T) {
	sc := loadScenario64()
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("64-client load scenario is not deterministic run to run")
	}
	if a.Completed != sc.N {
		t.Fatalf("completed %d of %d", a.Completed, sc.N)
	}

	requireWorkerInvariant(t, 3, sc.Seed, func(seed int64) (LoadResult, error) {
		s := sc
		s.Seed = seed
		return s.Run()
	})
}
