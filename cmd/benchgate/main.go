// Command benchgate is CI's perf-regression gate: it compares a freshly
// measured lanbench -benchjson snapshot against a committed throughput
// floor and fails (exit 1) when any gated benchmark falls below its
// minimum, when a benchmark the floor file lists under zero_retransmits sent
// any packet twice, when one listed under max_allocs_per_op allocated more
// than its ceiling, or when a count listed under exact (the DES kernel's,
// which repeat bit for bit on any host) differs at all. The floor file lists
// only the benchmarks worth gating; a gated name missing from the snapshot is
// itself a failure, so a renamed or dropped benchmark cannot sneak past.
//
//	benchgate -got BENCH_udp_ci.json -floor ci/bench_floor.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// snapshot mirrors the lanbench -benchjson schema (the fields the gate
// needs).
type snapshot struct {
	GoVersion  string `json:"go_version"`
	Benchmarks []struct {
		Name        string  `json:"name"`
		MBps        float64 `json:"mbps"`
		Retransmits int64   `json:"retransmits"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// floorFile is the committed gate: a note documenting how the floors were
// derived, the minimum MB/s per gated benchmark, and the gated benchmarks
// that must not have retransmitted a single packet, and the most heap
// allocations a gated benchmark may make per operation (counts, so unlike a
// wall-clock floor they do not drift with the host).
type floorFile struct {
	Note            string             `json:"note"`
	MinMBps         map[string]float64 `json:"min_mbps"`
	ZeroRetransmits []string           `json:"zero_retransmits"`
	MaxAllocsPerOp  map[string]int64   `json:"max_allocs_per_op"`
	// Rationale derives floors row by row (Note covers the rows it lacks);
	// Exact maps benchmark → snapshot field → the only value that passes.
	Rationale map[string]string             `json:"rationale"`
	Exact     map[string]map[string]float64 `json:"exact"`
}

func main() {
	got := flag.String("got", "", "freshly measured lanbench -benchjson snapshot")
	floorPath := flag.String("floor", "ci/bench_floor.json", "committed throughput floor")
	flag.Parse()
	if *got == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -got is required")
		os.Exit(2)
	}
	snap, err := readJSON[snapshot](*got)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	floor, err := readJSON[floorFile](*floorPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	measured := make(map[string]float64, len(snap.Benchmarks))
	retransmits := make(map[string]int64, len(snap.Benchmarks))
	allocs := make(map[string]int64, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		measured[b.Name] = b.MBps
		retransmits[b.Name] = b.Retransmits
		allocs[b.Name] = b.AllocsPerOp
	}

	names := make([]string, 0, len(floor.MinMBps))
	for name := range floor.MinMBps {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Printf("%-28s %10s %10s  verdict\n", "benchmark", "MB/s", "floor")
	for _, name := range names {
		min := floor.MinMBps[name]
		mbps, ok := measured[name]
		switch {
		case !ok:
			failed = true
			fmt.Printf("%-28s %10s %10.1f  MISSING from snapshot\n", name, "-", min)
		case mbps < min:
			failed = true
			fmt.Printf("%-28s %10.1f %10.1f  REGRESSION %s\n", name, mbps, min, floor.Rationale[name])
		default:
			fmt.Printf("%-28s %10.1f %10.1f  ok\n", name, mbps, min)
		}
	}
	for _, name := range floor.ZeroRetransmits {
		if _, ok := measured[name]; !ok {
			failed = true
			fmt.Printf("%-28s MISSING from snapshot (gated on zero retransmits)\n", name)
		} else if n := retransmits[name]; n != 0 {
			failed = true
			fmt.Printf("%-28s %d packets retransmitted on a clean loopback  REGRESSION\n", name, n)
		}
	}
	for name, most := range floor.MaxAllocsPerOp {
		if _, ok := measured[name]; !ok {
			failed = true
			fmt.Printf("%-28s MISSING from snapshot (gated on allocations)\n", name)
		} else if n := allocs[name]; n > most {
			failed = true
			fmt.Printf("%-28s %d allocs/op, ceiling %d  REGRESSION\n", name, n, most)
		}
	}
	rows, _ := readJSON[struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}](*got)
	byName := make(map[string]map[string]any, len(rows.Benchmarks))
	for _, row := range rows.Benchmarks {
		byName[fmt.Sprint(row["name"])] = row
	}
	for name, fields := range floor.Exact {
		for field, want := range fields {
			if v, ok := byName[name][field].(float64); !ok || v != want {
				failed = true
				fmt.Printf("%-28s %s = %v, committed %v  CHANGED\n", name, field, byName[name][field], want)
			}
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: throughput regression against %s (%s)\n", *floorPath, floor.Note)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated benchmarks at or above their floors")
}

func readJSON[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
