// Package stats provides the small statistics toolkit used by the
// experiment harness: streaming moments (Welford) and a duration-typed
// wrapper.
//
// Everything here is deterministic and allocation-light; benchmarks feed
// millions of Monte-Carlo samples through Welford accumulators.
package stats

import (
	"math"
	"time"
)

// Welford is a numerically stable streaming accumulator for mean and
// variance (Welford's online algorithm). The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Min and Max return the observed extremes (0 with no observations).
func (w *Welford) Min() float64 { return w.min }
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance (n-1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge combines another accumulator into w (parallel Welford / Chan et al.).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Durations is a Welford wrapper typed for time.Duration samples, the unit
// every experiment in this repository reports.
type Durations struct{ w Welford }

// Add incorporates one duration observation.
func (d *Durations) Add(x time.Duration) { d.w.Add(float64(x)) }

// N returns the number of observations.
func (d *Durations) N() int64 { return d.w.N() }

// Mean returns the mean duration.
func (d *Durations) Mean() time.Duration { return time.Duration(d.w.Mean()) }

// StdDev returns the sample standard deviation.
func (d *Durations) StdDev() time.Duration { return time.Duration(d.w.StdDev()) }

// Min and Max return observed extremes.
func (d *Durations) Min() time.Duration { return time.Duration(d.w.Min()) }
func (d *Durations) Max() time.Duration { return time.Duration(d.w.Max()) }

// RelErr returns |a-b| / max(|a|,|b|), or 0 when both are 0; convenient for
// tolerance assertions in cross-validation tests.
func RelErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
