// Command blastbench is blastlan's benchmark: six workloads that each stress
// a different layer, end-to-end metrics measured with tracing off, and a
// traced pass that attributes time to layers from outside the program.
//
//	bash benchmark/run.sh --workload bulk_pull --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --out benchmark/out/a.jsonl
//	bash benchmark/run.sh --compare benchmark/out/a.jsonl benchmark/out/b.jsonl
//
// run.sh builds blastd, blastcp and this program, then runs it from the
// repository root. Every transfer is verified byte for byte; the last line
// of standard output is one JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off on every workload. The failure ratio travels beside them as the
// attempted and failed counts.
var endToEnd = []metricDef{
	{"goodput_mbps", "MB/s"},
	{"transfer_p50_ms", "ms"},
	{"cpu_ms_per_mb", "ms/MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// tails are end-to-end too, and printed with them, but carry no bound: on a
// shared host one descheduled vCPU moves a tail percentile by more than any
// bound the contract allows, so they are for reading, not for gating.
var tails = []metricDef{
	{"transfer_p95_ms", "ms"},
	{"transfer_p99_ms", "ms"},
}

// perLayer are the traced and isolated metrics of single layers, named
// <module>.<what>. A layer a workload never enters reads 0 there.
var perLayer = []metricDef{
	{"wire.encode_ns_per_pkt", "ns"},
	{"wire.decode_ns_per_pkt", "ns"},
	{"wire.sum_ns_per_byte", "ns/B"},
	{"core.first_byte_us", "us"},
	{"core.tail_us", "us"},
	{"core.client_self_ns_per_byte", "ns/B"},
	{"core.retx_ratio", "ratio"},
	{"core.dup_ratio", "ratio"},
	{"core.naks_per_transfer", "count"},
	{"core.seeded_source_ns_per_byte", "ns/B"},
	{"core.null_env_ns_per_byte", "ns/B"},
	{"session.stat_rtt_us", "us"},
	{"session.server_elapsed_share", "ratio"},
	{"session.busy_refusals", "count"},
	{"session.served", "count"},
	{"udplan.dial_us", "us"},
	{"udplan.recv_ns_per_byte", "ns/B"},
	{"udplan.send_ns_per_byte", "ns/B"},
	{"udplan.recv_calls_per_mb", "1/MB"},
	{"udplan.flush_calls_per_mb", "1/MB"},
	{"udplan.tier", "tier"},
	{"udplan.gro", "bool"},
	{"udplan.tx_gso_ns_per_byte", "ns/B"},
	{"udplan.tx_mmsg_ns_per_byte", "ns/B"},
	{"udplan.tx_writeto_ns_per_byte", "ns/B"},
	{"udplan.tx_allocs_per_pkt", "count"},
	{"udplan.rx_ns_per_byte", "ns/B"},
	{"store.source_ns_per_byte", "ns/B"},
	{"store.hit_ratio", "ratio"},
	{"store.read_ops_per_mb", "1/MB"},
	{"store.evictions_per_mb", "1/MB"},
	{"store.cold_ns_per_byte", "ns/B"},
	{"store.hot_ns_per_byte", "ns/B"},
	{"store.evict_ns_per_byte", "ns/B"},
	{"store.filesink_ns_per_byte", "ns/B"},
	{"cmd.blastcp_overhead_ms", "ms"},
	{"cmd.blastcp_reported_mbps", "MB/s"},
	{"cmd.blastd_served_ms", "ms"},
	{"cmd.retx_ratio", "ratio"},
	{"cmd.blastcp_cpu_ms_per_mb", "ms/MB"},
	{"cmd.blastd_cpu_ms_per_mb", "ms/MB"},
	{"cmd.blastd_rss_mb", "MB"},
	{"cmd.push_default_mbps", "MB/s"},
	{"cmd.push_default_retx_ratio", "ratio"},
	{"sim.pkts_per_s", "1/s"},
	{"sim.ns_per_pkt", "ns"},
	{"sim.allocs_per_run", "count"},
	{"simrun.virtual_makespan_ms", "ms"},
	{"simrun.fairness", "ratio"},
	{"simrun.retransmits", "count"},
	{"kernel.udp_rcvbuf_errors_per_mb", "1/MB"},
	{"kernel.udp_in_datagrams_per_mb", "1/MB"},
	{"kernel.rcvbuf_effective_bytes", "B"},
	{"proc.user_ns_per_byte", "ns/B"},
	{"proc.sys_ns_per_byte", "ns/B"},
	{"proc.allocs_per_transfer", "count"},
	{"proc.ctx_switches_per_mb", "1/MB"},
	{"table2.dial_close_ns_per_byte", "ns/B"},
	{"table2.sink_ns_per_byte", "ns/B"},
	{"table2.layer_sum_ns_per_byte", "ns/B"},
	{"table2.e2e_ns_per_byte", "ns/B"},
	{"table2.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run, or all (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: sizes, picks, loss patterns, scenarios")
		seconds  = flag.Float64("seconds", 20, "length of the timed closed loop")
		trace    = flag.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
		layers   = flag.Bool("layers", true, "with -trace 1, also run the isolated layer benchmarks")
		out      = flag.String("out", "", "append the run's result to this file as one JSON line")
		bin      = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the blastd and blastcp binaries")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
		list     = flag.Bool("list", false, "list the workloads and exit")
	)
	flag.Parse()
	switch {
	case *list:
		for _, sp := range workloads {
			fmt.Printf("%-11s %s\n", sp.name, sp.why)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "-compare takes two result files")
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(1, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "all":
		// One process per workload: peak RSS is a process-wide high-water
		// mark, so workloads must not share one.
		for _, sp := range workloads {
			args := []string{"-workload", sp.name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
				"-trace", fmt.Sprint(*trace), "-layers=" + fmt.Sprint(*layers), "-out", *out, "-bin", *bin}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatal(1, "workload %s: %v", sp.name, err)
			}
		}
	default:
		sp := findWorkload(*workload)
		if sp == nil {
			fatal(2, "unknown workload %q (try -list)", *workload)
		}
		if *seconds <= 0 {
			fatal(2, "-seconds must be positive")
		}
		o, err := execute(sp, *seed, *seconds, *trace != 0, *layers, *bin)
		if err != nil && o.Attempted == 0 {
			fatal(1, "%s: %v", sp.name, err)
		}
		report(os.Stdout, o, err)
		if *out != "" {
			if werr := appendJSON(*out, o); werr != nil {
				fatal(1, "%v", werr)
			}
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "blastbench: "+format+"\n", args...)
	os.Exit(code)
}

// report prints every metric by name with its unit, then the contract line.
func report(w io.Writer, o outcome, firstErr error) {
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", o.Workload, o.Seed, o.Seconds, o.Trace)
	fmt.Fprintf(w, "workload_digest %s\n", o.Digest)
	fmt.Fprintf(w, "transfers %d attempted, %d failed, %d timed samples\n", o.Attempted, o.Failed, o.Samples)
	if firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", firstErr)
	}
	fail := 0.0
	if o.Attempted > 0 {
		fail = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Fprintf(w, "metric %-34s %14.6g %s\n", "fail_ratio", fail, "ratio")
	line := contractLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		v := o.Metrics[d.name]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = contractMetric{v, d.unit}
	}
	if !o.Trace {
		for _, d := range tails {
			fmt.Fprintf(w, "info   %-34s %14.6g %s (no bound)\n", d.name, o.Metrics[d.name], d.unit)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Fprintln(w, string(b))
}

func appendJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
