// Command lanbench regenerates the tables and figures of Zwaenepoel,
// "Protocols for Large Data Transfers over Local Networks" (SIGCOMM 1985).
//
// Usage:
//
//	lanbench                      # run everything, in parallel
//	lanbench -experiment table1   # one artifact
//	lanbench -experiment ablation-adversary  # hostile-network ablation
//	lanbench -list                # enumerate artifacts
//	lanbench -quick               # reduced Monte-Carlo budgets
//	lanbench -parallel=false      # sequential sampling (bit-identical output)
//	lanbench -benchjson BENCH_1.json  # machine-readable perf snapshot
//
// Output is the paper-vs-measured comparison archived in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/experiments"
	"blastlan/internal/mc"
	"blastlan/internal/params"
	"blastlan/internal/simrun"
	"blastlan/internal/wire"
)

func main() {
	var (
		id       = flag.String("experiment", "", "run a single experiment by id (default: all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "reduce Monte-Carlo budgets ~30x")
		seed     = flag.Int64("seed", 1, "base seed for stochastic experiments")
		format   = flag.String("format", "text", "output format: text or csv")
		parallel = flag.Bool("parallel", true,
			"fan DES sampling and figure points across GOMAXPROCS workers (results are bit-identical either way; the Monte-Carlo estimator always uses GOMAXPROCS internally)")
		benchjson = flag.String("benchjson", "",
			"write a machine-readable micro-benchmark snapshot (ns/op, allocs/op) to this file and exit")
		udp = flag.Bool("udp", false,
			"run the loopback UDP datapath throughput suite (gso vs batched vs single-syscall, plus the striped streams×policy sweep) instead of the paper experiments; writes -benchjson when set")
		streams = flag.Int("streams", 0,
			"with -udp: restrict the striped sweep to this stream count (0: full {1,2,4,8} sweep plus the classic single-stream cases)")
		ctrlName = flag.String("controller", "",
			"with -udp: restrict the striped sweep to one rate-control policy ("+strings.Join(core.ControllerNames(), ", ")+")")
		tier = flag.String("tier", "auto",
			"with -udp: cap the datapath tier of the classic pull cases (gso, mmsg, writeto, auto); the snapshot records the tier that actually ran")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	if *ctrlName != "" && core.ControllerID(*ctrlName) == 0 {
		fmt.Fprintf(os.Stderr, "lanbench: unknown controller %q (registered: %s)\n",
			*ctrlName, strings.Join(core.ControllerNames(), ", "))
		os.Exit(2)
	}

	if *udp {
		if err := runUDPBench(*benchjson, *quick, *streams, *ctrlName, *tier); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchjson != "" {
		if err := writeBenchSnapshot(*benchjson); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}

	workers := 0 // all cores
	if !*parallel {
		workers = 1
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: workers}
	todo := experiments.All()
	if *id != "" {
		e, err := experiments.Find(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []*experiments.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *format == "csv" {
			fmt.Printf("# %s — %s\n%s\n", res.ID, res.Title, experiments.RenderCSV(res))
			continue
		}
		fmt.Print(experiments.Render(res))
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// benchEntry is one micro-benchmark measurement in the snapshot.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBps        float64 `json:"mbps,omitempty"`        // end-to-end throughput cases only
	Tier        string  `json:"tier,omitempty"`        // datapath tier that actually ran (UDP pull cases)
	Retransmits int64   `json:"retransmits,omitempty"` // data packets sent more than once (UDP push cases: must be 0)
	// sim_load rows: exact DES kernel counts per simulated packet (sim.KernelStats).
	EventsPerPkt   float64 `json:"events_per_pkt,omitempty"`
	SwitchesPerPkt float64 `json:"switches_per_pkt,omitempty"`
	HeapPeak       int     `json:"heap_peak,omitempty"`
	// UDP pull and push rows: heap bytes allocated, the fewest of the reps
	// (BytesPerOp is the payload they moved).
	AllocBytesPerOp int64 `json:"alloc_bytes_per_op,omitempty"`
}

// benchSnapshot is the machine-readable perf record CI archives as
// BENCH_<n>.json; regressions show up as diffs against the committed file.
type benchSnapshot struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// writeBenchSnapshot runs the micro-benchmarks the experiments rest on and
// writes their results as JSON.
func writeBenchSnapshot(path string) error {
	blast64 := core.Config{
		TransferID:     1,
		Bytes:          64 << 10,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		RetransTimeout: 500 * time.Millisecond,
	}
	m := params.Standalone3Com()
	mv := params.VKernel()

	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"wire_encode_decode", func(b *testing.B) {
			pkt := &wire.Packet{Type: wire.TypeData, Trans: 7, Seq: 41, Total: 64,
				Payload: make([]byte, 1000)}
			buf := make([]byte, 0, 1100)
			var dec wire.Packet
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := pkt.Encode(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				if err := wire.DecodeInto(&dec, out); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sim_blast_64kb", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := simrun.Transfer(blast64, simrun.Options{Cost: m})
				if err != nil || res.Failed() {
					b.Fatal(err, res.SendErr)
				}
			}
		}},
		{"sampler_blast_64kb_x32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := simrun.Sample(blast64, simrun.Options{Cost: mv,
					Loss: params.LossModel{PNet: 1e-3}, Seed: int64(i)}, 32)
				if err != nil || st.Elapsed.N() == 0 {
					b.Fatalf("sample: %v (n=%d)", err, st.Elapsed.N())
				}
			}
		}},
		{"mc_blast_trial", func(b *testing.B) {
			p := mc.Params{Cost: mv, D: 64, PN: 1e-3, Tr: 200 * time.Millisecond,
				Strategy: core.GoBackN, Trials: 1, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i)
				if _, err := mc.Blast(p); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	snap := benchSnapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		snap.Benchmarks = append(snap.Benchmarks, benchEntry{
			Name:        c.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-26s %12.1f ns/op %8d B/op %6d allocs/op\n",
			c.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	// The many-client scale axis: sharded sim server, N = 1/8/64 clients
	// through the shared session layer.
	if err := appendLoadRows(&snap, false); err != nil {
		return err
	}
	return writeSnapshot(snap, path)
}

// writeSnapshot serialises a benchmark snapshot to path.
func writeSnapshot(snap benchSnapshot, path string) error {
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
