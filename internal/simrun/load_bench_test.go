package simrun

import (
	"runtime"
	"testing"
	"time"

	"blastlan/internal/core"
)

// BenchmarkLoad64 is where a simulated packet's wall-clock time goes: the
// 64-client scenario of lanbench's sim_load64 row and of the sim_load
// workload (64 and 256 KiB pulls, go-back-n and selective, arrivals over
// 50 ms, eight sessions at a time), run once per seed of a fixed range. It
// reports wall time per simulated packet (data, acks and NAKs), the kernel's
// exact events and switches per packet, and heap allocations per scenario
// run. The last three repeat bit for bit; ns/pkt is what a kernel or
// session-layer change moves. Compare builds with
//
//	go test -run '^$' -bench Load64 -count 8 ./internal/simrun
func BenchmarkLoad64(b *testing.B) {
	const seeds = 40
	var pkts, events, switches int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= seeds; seed++ {
			sc := LoadScenario{
				Name:        "load64",
				N:           64,
				Bytes:       []int{64 << 10, 256 << 10},
				Strategies:  []core.Strategy{core.GoBackN, core.Selective},
				Arrival:     50 * time.Millisecond,
				Concurrency: 8,
				Seed:        seed,
			}
			res, err := sc.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed != sc.N {
				b.Fatalf("seed %d: %d of %d clients completed", seed, res.Completed, sc.N)
			}
			pkts += int64(res.Agg.DataSent + res.Agg.AcksOut + res.Agg.NaksOut)
			events += res.Kernel.Events
			switches += res.Kernel.Switches
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	runs := float64(b.N * seeds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	b.ReportMetric(float64(events)/float64(pkts), "events/pkt")
	b.ReportMetric(float64(switches)/float64(pkts), "switches/pkt")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/runs, "allocs/run")
}
