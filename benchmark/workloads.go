package main

import (
	"time"

	"blastlan/internal/core"
)

// spec is one workload: why it exists, how many closed-loop clients drive
// it, and every transfer parameter it uses. All of them live in the table
// below so a reader can see at a glance what each number was measured with.
type spec struct {
	name string
	why  string
	open func(r *run) (instance, error)

	clients int // closed-loop client goroutines (each waits for its reply)
	warm    int // verified warm-up transfers per set-up, outside the timed phase
	// setups is how many times a run sets the workload up; setup_s is their
	// median. A set-up of a few tenths of a second read alone spreads 27-61 %
	// (interquartile, ten runs) and 4-18 % as the median of three; cli_get's
	// takes 2-3.5 s, and the driver's time limit has no room for 7 s more
	// on each of its runs.
	setups int

	// dataset
	objBytes int // object size: pulled object, pushed file
	files    int // files in the served directory
	minBytes int // file sizes are seeded log-uniform in [minBytes, maxBytes]
	maxBytes int

	// transfer
	chunk      int
	window     int
	strategy   core.Strategy
	controller string
	streams    int     // stripes of one pull (0: unstriped)
	loss       float64 // seeded drop probability on every client endpoint
	tr         time.Duration
	linger     time.Duration

	// datapath (in-process workloads; the cli_* workloads run the shipped
	// binaries at their default flags plus cliFlags)
	batch       int
	sockbuf     int
	concurrency int // server session cap
	cliFlags    []string
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// workloads is the benchmark. Each entry stresses a different layer; the
// "why" strings are the ones BENCHMARK.json carries.
var workloads = []spec{
	{
		name: "bulk_pull",
		why:  "one client pulls 16 MB seeded objects from an in-process server: the udplan/wire/core datapath does nearly all the work, store and handshake almost none",
		open: openInproc, clients: 1, warm: 8, setups: 3,
		objBytes: 16 * mb,
		chunk:    1000, window: 128, strategy: core.GoBackN,
		tr: 250 * time.Millisecond, linger: 50 * time.Millisecond,
		batch: 32, sockbuf: 4 * mb, concurrency: 2,
	},
	{
		name: "small_get",
		why:  "two clients stat+pull 4-256 KB files that fit the store cache: per-transfer cost (dial, REQ handshake, session open, hot lookup, linger) dominates and per-byte cost is small",
		open: openInproc, clients: 2, warm: 256, setups: 3,
		files: 256, minBytes: 4 * kb, maxBytes: 256 * kb,
		chunk: 1000, window: 128, strategy: core.GoBackN,
		tr: 20 * time.Millisecond, linger: 50 * time.Millisecond,
		batch: 32, sockbuf: 4 * mb, concurrency: 8,
	},
	{
		name: "lossy_pull",
		why:  "16 MB two-stripe selective-repeat pulls under seeded 1% loss: NAKs, retransmission, the aimd controller, the stripe merger and the completion handshake do the work",
		open: openInproc, clients: 1, warm: 6, setups: 3,
		objBytes: 16 * mb,
		chunk:    1000, window: 256, strategy: core.Selective, controller: core.ControllerAIMD,
		streams: 2, loss: 0.01,
		tr: 50 * time.Millisecond, linger: 50 * time.Millisecond,
		batch: 64, sockbuf: 8 * mb, concurrency: 3,
	},
	{
		name: "cli_get",
		why:  "blastd -serve and sequential blastcp -get at default flags over 160 x 2 MB files (320 MB > the 256 MiB cache): the disk-to-disk path a user types, in the store's miss/evict regime",
		open: openCLI, clients: 1, setups: 1,
		files: 160, minBytes: 2 * mb, maxBytes: 2 * mb,
	},
	{
		name: "cli_put",
		why:  "blastd -out and sequential blastcp -push -window 128 (the one non-default flag: default pushes storm) of an 8 MB file: Endpoint TX to sessionEnv RX to store.FileSink; a pull gain costing pushes shows",
		open: openCLI, clients: 1, warm: 4, setups: 3,
		objBytes: 8 * mb,
		// The one non-default flag: without -window a push is one blast of
		// the whole file into a 4 MiB socket buffer, and the resulting
		// retransmission storm (0.6-2.4 s per 16 MB push, 8x retransmits)
		// is bimodal from run to run: eight 20 s runs at default flags read
		// 8.3-10.6 MB/s five times and 19-26 MB/s three times, a spread four
		// times any bound the contract allows. The traced run records the
		// storm as cmd.push_default_*.
		cliFlags: []string{"-window", "128"},
	},
	{
		name: "sim_load",
		why:  "64-client simrun.LoadScenario runs back to back: DES kernel plus session layer with no sockets, so udplan/store changes must leave it flat and sim/simrun changes show only here",
		open: openSim, clients: 1, warm: 3, setups: 3,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
