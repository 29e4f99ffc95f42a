package simrun

import (
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
)

// ContentionSweep judges the rate-control policies against each other: it
// crosses every registered (or requested) policy with a set of adversaries
// and client counts, runs each cell as a DES LoadScenario — N clients of
// that policy pulling concurrently from one sharded server — and reports
// per-cell goodput, Jain fairness and makespan. Cells are seeded from the
// sweep seed and the cell's index in the deterministic Policies × Adversaries
// × Clients enumeration order and merged in index order, so the whole table
// is bit-identical at any worker count — the same contract the adversary
// determinism regression pins for Sample.
type ContentionSweep struct {
	// Policies are the rate-control policy names to judge (default: every
	// built-in policy, in core.ControllerNames order). "" is the fixed schedule.
	Policies []string
	// Adversaries are the hostile-network columns (default: DefaultAdversaries).
	Adversaries []NamedAdversary
	// Clients are the contention levels (default {1, 8, 64}).
	Clients []int
	// Bytes is the per-client transfer size (default 256 KB).
	Bytes int
	// Chunk is the data packet size (default params.DataPacketSize).
	Chunk int
	// Tr is the clients' retransmission timeout (default LoadScenario's).
	Tr time.Duration
	// Arrival is the client arrival window (default 2 ms: a near-herd).
	Arrival time.Duration
	// Concurrency is the server session cap (default: the cell's client
	// count — contention comes from the fabric, not BUSY refusals).
	Concurrency int
	// Seed seeds the sweep. A cell's seed is Seed plus its (adversary,
	// clients) coordinate — deliberately NOT its policy index, so every
	// policy is judged on the identical seeded workload (same arrival draws,
	// same adversary stream prefix) and a cross-policy goodput difference is
	// the policy's doing, not seed noise.
	Seed int64
}

// NamedAdversary labels one hostile-network column of the sweep.
type NamedAdversary struct {
	Name string
	Adv  params.Adversary
}

// DefaultAdversaries is the standard judging gauntlet: a clean fabric, 1%
// random wire loss, and heavy per-packet jitter.
func DefaultAdversaries() []NamedAdversary {
	return []NamedAdversary{
		{Name: "clean"},
		{Name: "loss1", Adv: params.Adversary{Loss: params.LossModel{PNet: 0.01}}},
		{Name: "jitter", Adv: params.Adversary{JitterMax: 500 * time.Microsecond}},
	}
}

// ContentionCell is one (policy, adversary, clients) cell of the sweep.
type ContentionCell struct {
	Policy    string // "" reported as "fixed"
	Adversary string
	Clients   int
	Completed int           // clients that finished with an intact payload
	Goodput   float64       // aggregate delivered MB/s over the makespan
	Fairness  float64       // Jain's index over per-client throughputs
	Makespan  time.Duration // first arrival to last completion (virtual)
	Retrans   int           // total sender retransmissions
}

// PolicyName is the cell's policy with the fixed schedule spelled out.
func (c ContentionCell) PolicyName() string {
	if c.Policy == "" {
		return "fixed"
	}
	return c.Policy
}

func (sw ContentionSweep) withDefaults() ContentionSweep {
	if len(sw.Policies) == 0 {
		sw.Policies = core.ControllerNames()
	}
	if len(sw.Adversaries) == 0 {
		sw.Adversaries = DefaultAdversaries()
	}
	if len(sw.Clients) == 0 {
		sw.Clients = []int{1, 8, 64}
	}
	if sw.Bytes == 0 {
		sw.Bytes = 256 << 10
	}
	if sw.Arrival == 0 {
		sw.Arrival = 2 * time.Millisecond
	}
	return sw
}

// cell builds the LoadScenario for one sweep cell.
func (sw ContentionSweep) cell(policy string, adv NamedAdversary, clients int, seed int64) LoadScenario {
	conc := sw.Concurrency
	if conc <= 0 {
		conc = clients
	}
	return LoadScenario{
		Name:        fmt.Sprintf("contention/%s/%s/%d", policy, adv.Name, clients),
		N:           clients,
		Bytes:       []int{sw.Bytes},
		Chunk:       sw.Chunk,
		Tr:          sw.Tr,
		Arrival:     sw.Arrival,
		Concurrency: conc,
		Controller:  policy,
		Adversary:   adv.Adv,
		Seed:        seed,
	}
}

// Run executes the sweep fanned across workers (0 or negative: GOMAXPROCS),
// returning cells in enumeration order: policies outermost, then
// adversaries, then client counts.
func (sw ContentionSweep) Run(workers int) ([]ContentionCell, error) {
	sw = sw.withDefaults()
	type cellSpec struct {
		policy  string
		adv     NamedAdversary
		clients int
		seed    int64
	}
	var specs []cellSpec
	for _, p := range sw.Policies {
		for ai, a := range sw.Adversaries {
			for ni, n := range sw.Clients {
				seed := sw.Seed + int64(ai*len(sw.Clients)+ni)
				specs = append(specs, cellSpec{p, a, n, seed})
			}
		}
	}
	out := make([]ContentionCell, len(specs))
	err := Pool(len(specs), workers, func(_, i int) error {
		s := specs[i]
		res, err := sw.cell(s.policy, s.adv, s.clients, s.seed).Run()
		if err != nil {
			return err
		}
		c := ContentionCell{
			Policy:    s.policy,
			Adversary: s.adv.Name,
			Clients:   s.clients,
			Completed: res.Completed,
			Fairness:  res.Fairness,
			Makespan:  res.Makespan,
			Retrans:   res.Agg.Retransmits,
		}
		if res.Makespan > 0 {
			c.Goodput = float64(res.AggBytes) / res.Makespan.Seconds() / 1e6
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
