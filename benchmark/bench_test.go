package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// shrunk returns a copy of a workload small enough for a smoke test: the
// same code paths, a fraction of the bytes.
func shrunk(name string) spec {
	sp := *findWorkload(name)
	sp.warm, sp.setups = min(sp.warm, 2), 1
	if sp.objBytes > 0 {
		sp.objBytes = 1 * mb
	}
	if sp.files > 0 {
		sp.files = min(sp.files, 8)
		sp.minBytes, sp.maxBytes = min(sp.minBytes, 64*kb), min(sp.maxBytes, 256*kb)
	}
	return sp
}

// TestSmoke runs every workload once, untraced and traced, and checks that
// what it prints is exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons and moves real bytes")
	}
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback: %v", err)
	} else {
		c.Close()
	}
	t.Chdir("..") // the benchmark runs from the repository root
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/blastd", "./cmd/blastcp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}

	declared := map[bool]map[string]string{false: {}, true: {}} // traced? -> name -> unit
	for _, d := range mf.EndToEnd {
		declared[false][d.Name] = d.Unit
	}
	for _, d := range mf.PerLayer {
		declared[true][d.Name] = d.Unit
	}
	for traced, names := range declared {
		for name := range names {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q (traced %v) does not fit the contract", name, traced)
			}
		}
	}
	if len(mf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the table has %d", len(mf.Workloads), len(workloads))
	}

	produced := map[string]bool{} // per-layer metrics some workload gave a value
	for i, w := range mf.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is not in the table", w.Name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json and the table disagree on why", w.Name)
		}
		sp := shrunk(w.Name)
		for _, traced := range []bool{false, true} {
			// The isolated pass is the same on every workload: once is enough.
			o, err := execute(&sp, 1, 0.2, traced, traced && i == 0, bin)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if o.Attempted < 1 || o.Failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.Name, traced, o.Attempted, o.Failed)
			}
			for name := range o.Metrics {
				if traced {
					produced[name] = true
				}
				_, ok := declared[traced][name]
				if !ok && !(name == "transfer_p95_ms" || name == "transfer_p99_ms") {
					t.Errorf("%s traced=%v produced undeclared metric %q", w.Name, traced, name)
				}
			}
			var buf bytes.Buffer
			report(&buf, o, nil)
			checkReport(t, w.Name, &buf, declared[traced])
		}
	}
	for name := range declared[true] {
		if !produced[name] {
			t.Errorf("per-layer metric %q is declared but no workload produces it", name)
		}
	}
}

// checkReport asserts the printed metric lines and the contract line carry
// every declared name exactly once with a finite value and the right unit.
func checkReport(t *testing.T, workload string, buf *bytes.Buffer, want map[string]string) {
	t.Helper()
	seen := map[string]int{}
	var last string
	sc := bufio.NewScanner(buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) != 4 || f[0] != "metric" || f[1] == "fail_ratio" {
			continue
		}
		seen[f[1]]++
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s prints %q", workload, f[1], f[2])
		}
		if want[f[1]] != f[3] {
			t.Errorf("%s: metric %s prints unit %q, BENCHMARK.json says %q", workload, f[1], f[3], want[f[1]])
		}
	}
	for name := range want {
		if seen[name] != 1 {
			t.Errorf("%s: metric %s printed %d times", workload, name, seen[name])
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", workload, len(seen), len(want))
	}
	var line contractLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("%s: last line is not the contract object: %v", workload, err)
	}
	if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(want) {
		t.Errorf("%s: contract line %+v", workload, line)
	}
}

// TestQuartiles pins the compare tool's quartiles to the values Python's
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartiles(t *testing.T) {
	med, iqr := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || iqr != 8.25-2.75 {
		t.Errorf("median %v iqr %v, want 5.5 and 5.5", med, iqr)
	}
}
