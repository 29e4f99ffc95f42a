package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the compare tool needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	Workloads []struct{ Name, Why string } `json:"workloads"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// readRuns loads the untraced runs of an -out file, grouped by workload.
func readRuns(path string) (map[string][]outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]outcome{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !o.Trace {
			runs[o.Workload] = append(runs[o.Workload], o)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the median and the interquartile distance of xs, by the
// method of Python's statistics.quantiles(xs, n=4) (exclusive), which is
// what the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (med, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], 0
	}
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1
		lo := int(pos)
		if pos < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.75) - at(0.25)
}

// compareFiles prints, for every end-to-end metric on every workload, the
// two files' medians, b's change against a, each side's own spread, and a
// verdict against the metric's bound. It reports whether nothing failed.
func compareFiles(aPath, bPath, manifestPath string) (bool, error) {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("%-10s %-16s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse", "a iqr", "b iqr", "bound", "verdict")
	for _, w := range mf.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fa, fb := 0, 0
		for _, o := range ra {
			fa += o.Failed
		}
		for _, o := range rb {
			fb += o.Failed
		}
		if fb > fa {
			ok = false
			fmt.Printf("%-10s %-16s %12d %12d %8s %8s %8s %6s  FAIL (more failed transfers)\n", w.Name, "failed", fa, fb, "", "", "", "0")
		}
		col := func(runs []outcome, name string) []float64 {
			var xs []float64
			for _, o := range runs {
				xs = append(xs, o.Metrics[name])
			}
			return xs
		}
		for _, d := range mf.EndToEnd {
			ma, ia := quartiles(col(ra, d.Name))
			mb, ib := quartiles(col(rb, d.Name))
			if ma == 0 {
				continue
			}
			worse := (mb - ma) / ma // positive: b is worse
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := ia/ma, ib/mb
			verdict := "PASS"
			switch {
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "UNRESOLVED (spread exceeds the bound)"
			case worse > d.Bound:
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("%-10s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
		for _, d := range tails {
			ma, ia := quartiles(col(ra, d.name))
			mb, ib := quartiles(col(rb, d.name))
			if ma == 0 || mb == 0 {
				continue
			}
			fmt.Printf("%-10s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %6s  info (no bound)\n",
				w.Name, d.name, ma, mb, 100*(mb-ma)/ma, 100*ia/ma, 100*ib/mb, "-")
		}
	}
	return ok, nil
}
