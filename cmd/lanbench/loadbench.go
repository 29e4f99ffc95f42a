package main

// The loadN sweep: the many-client scale axis the substrate-agnostic
// session layer opened. Each row runs simrun.LoadScenario — N seeded
// clients with staggered arrivals and mixed sizes against one sharded
// simulated server — and reports how fast the DES plus session layer push
// simulated payload through, in payload MB per wall-clock second. The rows
// land in both the micro snapshot (BENCH_5.json) and the -udp gated
// snapshot, so ci/bench_floor.json guards the scale axis like the loopback
// throughput floors.

import (
	"fmt"
	"runtime"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/simrun"
)

// loadCase is one row of the sweep.
type loadCase struct {
	name string
	n    int
}

// loadScenarioFor builds the benchmark scenario for n clients.
func loadScenarioFor(n int) simrun.LoadScenario {
	return simrun.LoadScenario{
		Name:        fmt.Sprintf("load%d", n),
		N:           n,
		Bytes:       []int{64 << 10, 256 << 10},
		Strategies:  []core.Strategy{core.GoBackN, core.Selective},
		Arrival:     50 * time.Millisecond,
		Concurrency: 8,
		Seed:        1,
	}
}

// appendLoadRows measures the sweep (N = 1, 8, 64) and appends one row per
// N. Each row is the best of reps runs (wall-clock DES throughput jitters
// with scheduler noise like any other wall-clock figure); the kernel counts
// per simulated packet beside it repeat bit for bit, and CI gates them exactly,
// with the fewest heap allocations of any rep, as on the UDP rows.
func appendLoadRows(snap *benchSnapshot, quick bool) error {
	reps := 3
	if quick {
		reps = 2
	}
	var ms runtime.MemStats
	for _, c := range []loadCase{{"sim_load1", 1}, {"sim_load8", 8}, {"sim_load64", 64}} {
		sc := loadScenarioFor(c.n)
		var best time.Duration
		var res simrun.LoadResult
		allocs, alloced := ^uint64(0), ^uint64(0)
		for r := 0; r < reps; r++ {
			runtime.ReadMemStats(&ms)
			mallocs, total := ms.Mallocs, ms.TotalAlloc
			t0 := time.Now()
			var err error
			res, err = sc.Run()
			el := time.Since(t0)
			runtime.ReadMemStats(&ms)
			allocs, alloced = min(allocs, ms.Mallocs-mallocs), min(alloced, ms.TotalAlloc-total)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if res.Completed != sc.N {
				return fmt.Errorf("%s: %d of %d clients completed", c.name, res.Completed, sc.N)
			}
			if best == 0 || el < best {
				best = el
			}
		}
		mbps := float64(res.AggBytes) / best.Seconds() / 1e6
		pkts := float64(res.Agg.DataSent + res.Agg.AcksOut + res.Agg.NaksOut)
		e := benchEntry{
			Name:           c.name,
			NsPerOp:        float64(best.Nanoseconds()),
			AllocsPerOp:    int64(allocs),
			BytesPerOp:     res.AggBytes,
			MBps:           mbps,
			EventsPerPkt:   float64(res.Kernel.Events) / pkts,
			SwitchesPerPkt: float64(res.Kernel.Switches) / pkts,
			HeapPeak:       res.Kernel.HeapPeak,
		}
		fmt.Printf("%-32s %10.1f %12v  %.3f events/pkt %.3f switches/pkt heap peak %d  %d allocs %d B alloc'd\n",
			c.name, mbps, best.Round(time.Millisecond), e.EventsPerPkt, e.SwitchesPerPkt, e.HeapPeak, allocs, alloced)
		snap.Benchmarks = append(snap.Benchmarks, e)
	}
	return nil
}
