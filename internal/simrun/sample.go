package simrun

import (
	"runtime"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/sim"
	"blastlan/internal/stats"
)

// Stats summarises a batch of independent seeded transfers: the experiment
// harness regenerates every stochastic figure point from one of these.
type Stats struct {
	// Elapsed accumulates the sender elapsed time of every successful trial.
	Elapsed stats.Durations
	// Failures counts trials where either side abandoned the transfer
	// (core.ErrGiveUp); failed trials contribute to no other field.
	Failures int
	// Retransmits and DataPackets total the sender-side packet counters of
	// the successful trials.
	Retransmits int64
	DataPackets int64
}

// Sample runs n independent transfers of cfg, with trial i seeded
// opt.Seed+i, fanned across GOMAXPROCS workers, and merges the results.
// The output is bit-identical to a sequential run of the same trials: every
// trial is deterministic given its seed, and the merge folds trials in index
// order regardless of which worker ran them.
func Sample(cfg core.Config, opt Options, n int) (Stats, error) {
	return SampleWorkers(cfg, opt, n, 0)
}

// SampleWorkers is Sample with an explicit worker count (0 or negative
// means GOMAXPROCS). Options carrying callbacks (Trace, DropFilter, an
// Adversary script) are not goroutine-safe and force a single worker; the
// Adversary's probabilistic knobs are per-trial state and parallelise fully.
func SampleWorkers(cfg core.Config, opt Options, n, workers int) (Stats, error) {
	var agg Stats
	if n <= 0 {
		return agg, nil
	}
	workers = poolSize(n, workers)
	if opt.Trace != nil || opt.DropFilter != nil || opt.Adversary.Script != nil {
		workers = 1
	}

	type trial struct {
		elapsed     time.Duration
		retransmits int
		dataPackets int
		failed      bool
	}
	trials := make([]trial, n)
	// One kernel per worker, Reset between trials: pools stay warm. A
	// substrate error (deadlock, panic) can leave processes blocked, so the
	// kernel no longer satisfies Reset's quiesce precondition — Pool stops a
	// worker at its first error.
	kernels := make([]*sim.Kernel, workers)
	err := Pool(n, workers, func(w, i int) error {
		if kernels[w] == nil {
			kernels[w] = sim.NewKernel()
		}
		o := opt
		o.Seed = opt.Seed + int64(i)
		res, err := TransferOn(kernels[w], cfg, o)
		if err != nil {
			return err
		}
		if res.Failed() {
			trials[i].failed = true
			return nil
		}
		trials[i].elapsed = res.Send.Elapsed
		trials[i].retransmits = res.Send.Retransmits
		trials[i].dataPackets = res.Send.DataPackets
		return nil
	})
	if err != nil {
		return agg, err
	}

	// Merge strictly in trial-index order so the accumulated moments are
	// identical no matter how the trials were scheduled.
	for i := range trials {
		t := &trials[i]
		if t.failed {
			agg.Failures++
			continue
		}
		agg.Elapsed.Add(t.elapsed)
		agg.Retransmits += int64(t.retransmits)
		agg.DataPackets += int64(t.dataPackets)
	}
	return agg, nil
}

// poolSize resolves a requested worker count against n items: 0 or negative
// means GOMAXPROCS, and there are never more workers than items.
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Pool is the one deterministic worker pool every sampler, sweep and figure
// shares: fn(w, i) runs once for each i in [0, n) on poolSize(n, workers)
// goroutines, worker w taking i = w, w+workers, … in order (w lets a caller
// keep per-worker state, such as a reusable kernel). fn must write only
// slot i of whatever it fills, so the caller's index-order merge is
// identical at any worker count. A worker stops at its first error; the
// error returned is the one with the lowest index.
func Pool(n, workers int, fn func(w, i int) error) error {
	workers = poolSize(n, workers)
	errs := make([]error, n)
	worker := func(w int) {
		for i := w; i < n; i += workers {
			if errs[i] = fn(w, i); errs[i] != nil {
				return
			}
		}
	}
	if workers <= 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
