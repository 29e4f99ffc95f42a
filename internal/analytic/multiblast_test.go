package analytic

import (
	"math"
	"testing"
	"time"

	"blastlan/internal/params"
)

func TestWindowsPartition(t *testing.T) {
	cases := []struct {
		n, w int
		want []int
	}{
		{64, 0, []int{64}},
		{64, 64, []int{64}},
		{64, 100, []int{64}},
		{64, 16, []int{16, 16, 16, 16}},
		{70, 32, []int{32, 32, 6}},
		{1, 16, []int{1}},
	}
	for _, c := range cases {
		got := windows(c.n, c.w)
		if len(got) != len(c.want) {
			t.Fatalf("windows(%d,%d) = %v", c.n, c.w, got)
		}
		sum := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("windows(%d,%d) = %v, want %v", c.n, c.w, got, c.want)
			}
			sum += got[i]
		}
		if sum != c.n {
			t.Fatalf("windows(%d,%d) sums to %d", c.n, c.w, sum)
		}
	}
}

func TestTimeMultiblastErrorFree(t *testing.T) {
	m := params.VKernel()
	// Single blast == TimeBlast.
	if got, want := TimeMultiblast(m, 64, 0), TimeBlast(m, 64); got != want {
		t.Errorf("single blast: %v vs %v", got, want)
	}
	// k windows cost exactly (k-1) extra ack exchanges.
	k := 4
	extra := time.Duration(k-1) * (m.C() + 2*m.Ca() + m.Ta())
	if got, want := TimeMultiblast(m, 64, 16), TimeBlast(m, 64)+extra; got != want {
		t.Errorf("4 windows: %v vs %v", got, want)
	}
	// Error-free, smaller windows always cost more.
	prev := TimeMultiblast(m, 256, 0)
	for _, w := range []int{256, 128, 64, 32, 16} {
		cur := TimeMultiblast(m, 256, w)
		if cur < prev {
			t.Errorf("w=%d cheaper than larger window: %v < %v", w, cur, prev)
		}
		prev = cur
	}
}

func TestTimeMultiblastOverlapped(t *testing.T) {
	m := params.VKernel()
	exchange := m.C() + 2*m.Ca() + m.Ta()
	plain := TimeMultiblast(m, 64, 16) // 4 windows of 16: 15 packets of each later one can be filled ahead
	small := exchange / 15             // 15 of these fit one exchange
	for _, c := range []struct {
		name string
		n, w int
		fill time.Duration
		want time.Duration
	}{
		{"no fill is the serial multiblast", 64, 16, 0, plain},
		{"one window has no predecessor to hide in", 64, 0, m.C(), TimeBlast(m, 64)},
		{"a fill that fits the exchange is hidden whole", 64, 16, small, plain - 3*15*small},
		{"a fill that outgrows it leaves (k-1)·fill − exchange exposed", 64, 16, m.C(), plain - 3*exchange},
		{"fill is part of C, never more", 64, 16, 10 * m.C(), plain - 3*exchange},
		{"a short last window hides only its own fill", 40, 16, small, TimeMultiblast(m, 40, 16) - (15+7)*small},
	} {
		if got := TimeMultiblastOverlapped(m, c.n, c.w, c.fill); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	// Fully overlapped, every extra exchange is paid for by the fill it
	// hides: the multiblast costs what the single blast costs.
	if 15*m.C() < exchange {
		t.Fatal("preset changed: a window's fill no longer covers an exchange")
	}
	if got, want := TimeMultiblastOverlapped(m, 64, 16, m.C()), TimeBlast(m, 64); got != want {
		t.Errorf("fully overlapped 4 windows: %v, single blast %v", got, want)
	}
}

func TestExpectedTimeMultiblastCrossover(t *testing.T) {
	m := params.VKernel()
	n := 1024 // the 1 MB dump
	tr := TimeBlast(m, n) / 4
	// Error-free: single blast wins.
	if OptimalWindow(m, n, tr, 0, []int{16, 64, 256, 0}) != 0 {
		t.Error("with pn=0 the single blast must win")
	}
	// Lossy: a bounded window must win — §3.1.3's whole point.
	best := OptimalWindow(m, n, tr, 2e-3, []int{16, 64, 256, 0})
	if best == 0 {
		t.Error("at pn=2e-3 a 1024-packet single blast cannot be optimal")
	}
	// Expectation is monotone in pn for every window.
	for _, w := range []int{0, 64} {
		prev := time.Duration(0)
		for _, pn := range []float64{0, 1e-4, 1e-3, 1e-2} {
			e := ExpectedTimeMultiblast(m, n, w, tr, pn)
			if e < prev {
				t.Errorf("w=%d: expectation not monotone at pn=%g", w, pn)
			}
			prev = e
		}
	}
	// Degenerate loss saturates.
	if ExpectedTimeMultiblast(m, n, 64, tr, 1) != time.Duration(math.MaxInt64) {
		t.Error("pn=1 should saturate")
	}
}

func TestStdDevMultiblast(t *testing.T) {
	m := params.VKernel()
	tr := TimeBlast(m, 64)
	// Variances add: k independent equal windows give σ·√k of one window.
	one := float64(StdDevFullNoNak(TimeBlast(m, 16), tr, 16, 1e-3))
	four := float64(StdDevMultiblast(m, 64, 16, tr, 1e-3))
	if rel := math.Abs(four-one*2) / (one * 2); rel > 1e-9 {
		t.Errorf("σ(4 windows) = %g, want 2·σ(1 window) = %g", four, one*2)
	}
	if StdDevMultiblast(m, 64, 16, tr, 1) != time.Duration(math.MaxInt64) {
		t.Error("pn=1 should saturate")
	}
	// Bounded windows cut σ at realistic loss: σ grows superlinearly in
	// window size through p_c.
	big := StdDevMultiblast(m, 1024, 0, tr, 1e-3)
	small := StdDevMultiblast(m, 1024, 64, tr, 1e-3)
	if small >= big {
		t.Errorf("σ(w=64) = %v should beat σ(single) = %v", small, big)
	}
}
