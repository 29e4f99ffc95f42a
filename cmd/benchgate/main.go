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
	"io"
	"os"
	"sort"
)

// snapshot mirrors the lanbench -benchjson schema: each row is a name plus
// numeric fields (mbps, retransmits, allocs_per_op, the exact DES counts).
type snapshot struct {
	Benchmarks []map[string]any `json:"benchmarks"`
}

// floorFile is the committed gate: a note stating the margin policy, the
// minimum MB/s per gated benchmark, and the gated benchmarks that must not
// have retransmitted a single packet, and the most heap allocations a gated
// benchmark may make per operation (counts, so unlike a wall-clock floor
// they do not drift with the host).
type floorFile struct {
	Note            string             `json:"note"`
	MinMBps         map[string]float64 `json:"min_mbps"`
	ZeroRetransmits []string           `json:"zero_retransmits"`
	MaxAllocsPerOp  map[string]int64   `json:"max_allocs_per_op"`
	// Rationale derives every gated row's floors, row by row;
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
	if !gate(os.Stdout, snap, floor) {
		fmt.Fprintf(os.Stderr, "benchgate: throughput regression against %s (%s)\n", *floorPath, floor.Note)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated benchmarks at or above their floors")
}

// gate checks snap against floor, printing one line per gated row to out,
// and reports whether every gate held.
func gate(out io.Writer, snap snapshot, floor floorFile) bool {
	byName := make(map[string]map[string]any, len(snap.Benchmarks))
	for _, row := range snap.Benchmarks {
		byName[fmt.Sprint(row["name"])] = row
	}
	// field reads a numeric snapshot field; a missing row or field reads 0.
	field := func(name, f string) float64 {
		v, _ := byName[name][f].(float64)
		return v
	}

	names := make([]string, 0, len(floor.MinMBps))
	for name := range floor.MinMBps {
		names = append(names, name)
	}
	sort.Strings(names)

	ok := true
	fmt.Fprintf(out, "%-28s %10s %10s  verdict\n", "benchmark", "MB/s", "floor")
	for _, name := range names {
		min, mbps := floor.MinMBps[name], field(name, "mbps")
		switch {
		case byName[name] == nil:
			ok = false
			fmt.Fprintf(out, "%-28s %10s %10.1f  MISSING from snapshot\n", name, "-", min)
		case mbps < min:
			ok = false
			fmt.Fprintf(out, "%-28s %10.1f %10.1f  REGRESSION %s\n", name, mbps, min, floor.Rationale[name])
		default:
			fmt.Fprintf(out, "%-28s %10.1f %10.1f  ok\n", name, mbps, min)
		}
	}
	for _, name := range floor.ZeroRetransmits {
		if byName[name] == nil {
			ok = false
			fmt.Fprintf(out, "%-28s MISSING from snapshot (gated on zero retransmits)\n", name)
		} else if n := field(name, "retransmits"); n != 0 {
			ok = false
			fmt.Fprintf(out, "%-28s %v packets retransmitted on a clean loopback  REGRESSION\n", name, n)
		}
	}
	for name, most := range floor.MaxAllocsPerOp {
		if byName[name] == nil {
			ok = false
			fmt.Fprintf(out, "%-28s MISSING from snapshot (gated on allocations)\n", name)
		} else if n := field(name, "allocs_per_op"); n > float64(most) {
			ok = false
			fmt.Fprintf(out, "%-28s %v allocs/op, ceiling %d  REGRESSION\n", name, n, most)
		}
	}
	for name, fields := range floor.Exact {
		for f, want := range fields {
			if v, present := byName[name][f].(float64); !present || v != want {
				ok = false
				fmt.Fprintf(out, "%-28s %s = %v, committed %v  CHANGED %s\n", name, f, byName[name][f], want, floor.Rationale[name])
			}
		}
	}
	return ok
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
