package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := w.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("sample variance = %g, want 32/7", got)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Error("single observation: mean 42, variance 0")
	}
}

// Property: Welford agrees with the naive two-pass computation.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		return RelErr(w.Mean(), mean) < 1e-9 && RelErr(w.Variance(), naiveVar) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMerge(t *testing.T) {
	f := func(a, b []int16) bool {
		var wa, wb, wall Welford
		for _, v := range a {
			wa.Add(float64(v))
			wall.Add(float64(v))
		}
		for _, v := range b {
			wb.Add(float64(v))
			wall.Add(float64(v))
		}
		wa.Merge(&wb)
		if wa.N() != wall.N() {
			return false
		}
		if wall.N() == 0 {
			return true
		}
		return RelErr(wa.Mean(), wall.Mean()) < 1e-9 &&
			math.Abs(wa.Variance()-wall.Variance()) <= 1e-6*(1+wall.Variance()) &&
			wa.Min() == wall.Min() && wa.Max() == wall.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurations(t *testing.T) {
	var d Durations
	d.Add(1 * time.Millisecond)
	d.Add(3 * time.Millisecond)
	if got := d.Mean(); got != 2*time.Millisecond {
		t.Errorf("mean = %v, want 2ms", got)
	}
	if d.Min() != time.Millisecond || d.Max() != 3*time.Millisecond {
		t.Errorf("min/max = %v/%v", d.Min(), d.Max())
	}
	if d.N() != 2 {
		t.Errorf("N = %d", d.N())
	}
	if d.StdDev() <= 0 {
		t.Error("stddev should be positive")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) should be 0")
	}
	if RelErr(1, 1) != 0 {
		t.Error("RelErr(1,1) should be 0")
	}
	if got := RelErr(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(90,100) = %g, want 0.1", got)
	}
	if RelErr(-1, 1) != 2 {
		t.Errorf("RelErr(-1,1) = %g, want 2", RelErr(-1, 1))
	}
}
