package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// opTimeout bounds one transfer; past it the transfer counts as failed.
const opTimeout = 60 * time.Second

// run is what a workload instance is opened with.
type run struct {
	sp     *spec
	seed   int64
	bin    string // directory holding blastd and blastcp
	dir    string // scratch directory of this set-up; removed on close
	digest hash.Hash
}

// note folds one line describing the generated inputs into the workload
// digest, so two runs can prove they saw the same inputs.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.digest, format+"\n", args...)
}

// instance is one set-up of a workload: servers started, datasets written.
type instance interface {
	// transfer runs client c's i-th transfer and verifies it byte for byte.
	// op is the timed part; anything transfer spends beyond op (comparing a
	// CLI's output file) is excluded from the phase's wall time.
	transfer(c, i int, tt *transferTrace) (bytes int64, op time.Duration, err error)
	// layers reports the per-layer counters accumulated since the last call.
	layers() map[string]float64
	close() error
}

// phase is one closed-loop measurement.
type phase struct {
	wall      time.Duration // timed wall seconds, verification pauses excluded
	bytes     int64         // verified payload bytes
	durs      []time.Duration
	attempted int
	failed    int
	firstErr  error
	host      hostDelta
}

func (p *phase) goodput() float64 { return float64(p.bytes) / 1e6 / p.wall.Seconds() }

// measure drives the instance's clients in a closed loop for d: each client
// starts its next transfer only when the previous one has completed, and a
// transfer in flight at the deadline runs to completion.
func measure(inst instance, sp *spec, d time.Duration, tr *tracer, procs *procSet) phase {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		p  phase
	)
	before := procs.snapshot()
	start := time.Now()
	var maxPause time.Duration
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var pause time.Duration
			for i := 0; time.Since(start) < d; i++ {
				tt := tr.begin()
				t0 := time.Now()
				n, op, err := inst.transfer(c, i, tt)
				pause += time.Since(t0) - op
				tt.end(op)
				mu.Lock()
				p.attempted++
				if err != nil || op > opTimeout {
					p.failed++
					if p.firstErr == nil {
						if err == nil {
							err = fmt.Errorf("transfer took %v (limit %v)", op, opTimeout)
						}
						p.firstErr = fmt.Errorf("client %d transfer %d: %w", c, i, err)
					}
				} else {
					p.bytes += n
					p.durs = append(p.durs, op)
				}
				mu.Unlock()
			}
			mu.Lock()
			if pause > maxPause {
				maxPause = pause
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start) - maxPause
	p.host = procs.snapshot().sub(before)
	return p
}

// quantile returns the q-quantile of sorted durs by linear interpolation.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perMB divides a count or a time by megabytes of payload (10^6 bytes).
func perMB(x float64, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return x / (float64(bytes) / 1e6)
}

// perByte divides nanoseconds by payload bytes.
func perByte(d time.Duration, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(d) / float64(bytes)
}

// outcome is everything one benchmark run reports.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Digest    string             `json:"workload_digest"`
	Samples   int                `json:"samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// execute runs one workload end to end: sp.setups set-ups (setup_s is their
// median, the last one is measured on), the timed closed loop, and in the
// traced pass the traced loop and the isolated layer benchmarks.
func execute(sp *spec, seed int64, seconds float64, trace, layers bool, bin string) (outcome, error) {
	out := outcome{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]float64{}}
	scratch := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	defer os.RemoveAll(scratch)

	procs := &procSet{}
	var (
		inst   instance
		r      *run
		setupS []float64
	)
	for k := 0; k < sp.setups; k++ {
		if inst != nil {
			err := inst.close()
			inst = nil // or the old dataset stays reachable while the next is built
			if err != nil {
				return out, fmt.Errorf("closing set-up %d: %w", k, err)
			}
			// Earlier set-ups' datasets must not count towards peak RSS.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		r = &run{sp: sp, seed: seed, bin: bin, dir: filepath.Join(scratch, fmt.Sprint(k)), digest: sha256.New()}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return out, err
		}
		var err error
		if inst, err = sp.open(r); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < sp.warm; i++ {
			if _, _, err := inst.transfer(i%sp.clients, -1-i, nil); err != nil {
				inst.close()
				return out, fmt.Errorf("warm-up transfer %d: %w", i, err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	inst.layers() // discard what the warm-up counted
	if d, ok := inst.(*cli); ok {
		procs.daemon, procs.clientRSS = d.daemon.Process.Pid, func() int64 { return d.clientRSS }
	}
	out.Digest = hex.EncodeToString(r.digest.Sum(nil))[:16]

	total := time.Duration(seconds * float64(time.Second))
	if !trace {
		p := measure(inst, sp, total, nil, procs)
		out.fill(p)
		m := out.Metrics
		m["goodput_mbps"] = p.goodput()
		slices.Sort(p.durs)
		m["transfer_p50_ms"] = ms(quantile(p.durs, 0.50))
		m["transfer_p95_ms"] = ms(quantile(p.durs, 0.95))
		m["transfer_p99_ms"] = ms(quantile(p.durs, 0.99))
		m["cpu_ms_per_mb"] = perMB(ms(p.host.user+p.host.sys), p.bytes)
		m["peak_rss_mb"] = procs.peakRSSMB()
		m["setup_s"], _ = quartiles(setupS)
		return out, p.firstErr
	}

	// Traced pass: a short untraced reference, then the traced loop. The
	// difference between their goodputs is what tracing costs.
	ref := measure(inst, sp, total/4, nil, procs)
	inst.layers()
	tr := newTracer()
	if t, ok := inst.(interface{ setTracer(*tracer) }); ok {
		t.setTracer(tr)
	}
	p := measure(inst, sp, total-total/4, tr, procs)
	p.attempted += ref.attempted
	p.failed += ref.failed
	if p.firstErr == nil {
		p.firstErr = ref.firstErr
	}
	out.fill(p)
	m := out.Metrics
	maps.Copy(m, inst.layers())
	maps.Copy(m, tr.layerMetrics(sp, p))
	maps.Copy(m, hostMetrics(p))
	m["trace.overhead_pct"] = 100 * (ref.goodput() - p.goodput()) / ref.goodput()
	if err := tr.write(filepath.Join("benchmark", "out", "trace-"+sp.name+".json"), sp.name, seed); err != nil {
		return out, err
	}
	if layers {
		if err := inst.close(); err != nil {
			return out, err
		}
		inst = nil
		iso, err := isolatedLayers(filepath.Join(scratch, "layers"))
		if err != nil {
			return out, fmt.Errorf("isolated layers: %w", err)
		}
		maps.Copy(m, iso)
	}
	return out, p.firstErr
}

func (o *outcome) fill(p phase) {
	o.Samples = len(p.durs)
	o.Attempted = p.attempted
	o.Failed = p.failed
}
