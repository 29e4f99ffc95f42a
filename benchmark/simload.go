package main

import (
	"fmt"
	"runtime"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/simrun"
)

// simLoad runs simrun.LoadScenario back to back: no sockets, no files, the
// DES kernel and the session layer only. One "transfer" is one scenario
// run; its bytes are the simulated payload the scenario delivered.
type simLoad struct {
	r    *run
	runs int

	// since the last layers() call
	wall    time.Duration
	packets int64
	n       int
	mallocs uint64
	first   *simrun.LoadResult // the run seeded with -seed itself: exact counters
}

// scenario is lanbench's sim_load64 row: 64 seeded clients, mixed sizes and
// strategies, staggered over 50 ms, against a server capped at 8 sessions.
func scenario(seed int64) simrun.LoadScenario {
	return simrun.LoadScenario{
		Name:        "load64",
		N:           64,
		Bytes:       []int{64 * kb, 256 * kb},
		Strategies:  []core.Strategy{core.GoBackN, core.Selective},
		Arrival:     50 * time.Millisecond,
		Concurrency: 8,
		Seed:        seed,
	}
}

func openSim(r *run) (instance, error) {
	r.note("workload sim_load seed %d scenario %+v", r.seed, scenario(r.seed))
	return &simLoad{r: r}, nil
}

func (s *simLoad) close() error { return nil }

// transfer runs the scenario seeded seed+k for the k-th run of this set-up
// (warm-ups included, so the timed phase of a given seed always sees the
// same scenarios in the same order).
func (s *simLoad) transfer(_, _ int, tt *transferTrace) (int64, time.Duration, error) {
	sc := scenario(s.r.seed + int64(s.runs))
	s.runs++
	var before runtime.MemStats
	if tt != nil {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	res, err := sc.Run()
	op := time.Since(t0)
	if err != nil {
		return 0, op, err
	}
	var want int64
	for _, c := range res.Clients {
		if !c.Completed || !c.ChecksumOK {
			return 0, op, fmt.Errorf("scenario seed %d client %d: completed %v, checksum ok %v, %s", sc.Seed, c.Client, c.Completed, c.ChecksumOK, c.Err)
		}
		want += int64(c.Bytes)
	}
	if res.Completed != sc.N || res.AggBytes != want {
		return 0, op, fmt.Errorf("scenario seed %d delivered %d bytes to %d clients, expected %d to %d", sc.Seed, res.AggBytes, res.Completed, want, sc.N)
	}
	if tt != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.mallocs += after.Mallocs - before.Mallocs
		tt.t.emit("simrun.run", spanTransfer, tt.id, 0, t0, t0.Add(op), op, 1)
	}
	s.wall += op
	s.packets += int64(res.Agg.DataSent + res.Agg.AcksOut + res.Agg.NaksOut)
	s.n++
	if sc.Seed == s.r.seed {
		s.first = &res
	}
	return res.AggBytes, op, nil
}

func (s *simLoad) layers() map[string]float64 {
	m := map[string]float64{}
	if s.n > 0 && s.wall > 0 {
		m["sim.pkts_per_s"] = float64(s.packets) / s.wall.Seconds()
		m["sim.ns_per_pkt"] = float64(s.wall) / float64(s.packets)
		m["sim.allocs_per_run"] = float64(s.mallocs) / float64(s.n)
	}
	if s.first != nil {
		m["simrun.virtual_makespan_ms"] = ms(s.first.Makespan)
		m["simrun.fairness"] = s.first.Fairness
		m["simrun.retransmits"] = float64(s.first.Agg.Retransmits)
	}
	s.wall, s.packets, s.n, s.mallocs = 0, 0, 0, 0
	return m
}
