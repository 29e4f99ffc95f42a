package analytic

import (
	"math"
	"time"

	"blastlan/internal/params"
)

// Multiblast models (§3.1.3): a transfer of n packets split into blasts of
// at most w packets, each blast individually acknowledged before the next
// begins. These closed forms cover the full-retransmission-on-timeout
// strategy (the §3.1.2 analysis applied per window); partial and selective
// window recovery is evaluated by simulation like the paper does.

// windows returns the per-blast packet counts for n packets with window w
// (w <= 0 means a single blast).
func windows(n, w int) []int {
	if w <= 0 || w >= n {
		return []int{n}
	}
	var out []int
	for n > 0 {
		k := w
		if n < w {
			k = n
		}
		out = append(out, k)
		n -= k
	}
	return out
}

// TimeMultiblast returns the error-free elapsed time of a multiblast
// transfer: every packet still costs C+T once, and every window adds one
// acknowledgement exchange —
//
//	T = N·(C+T) + k·(C + 2Ca + Ta)   for k windows.
func TimeMultiblast(m params.CostModel, n, w int) time.Duration {
	var total time.Duration
	for _, k := range windows(n, w) {
		total += TimeBlast(m, k)
	}
	return total
}

// TimeMultiblastOverlapped is TimeMultiblast for a sender that prepares the
// next window while the current one's acknowledgement exchange is in flight.
// Of each packet's C, fill is the part that needs no interface — sourcing and
// encoding the packet — and the reliable last packet of a window is not
// prepared ahead. Every window after the first therefore hides
// min((k−1)·fill, C+2Ca+Ta) of its time in its predecessor's exchange, and
// max(0, (k−1)·fill − (C+2Ca+Ta)) of that fill stays exposed. With fill = 0
// it is TimeMultiblast; once a window's fill fits the exchange, shrinking
// the window costs only the exchanges the larger window would have saved.
func TimeMultiblastOverlapped(m params.CostModel, n, w int, fill time.Duration) time.Duration {
	fill = min(fill, m.C())
	exchange := m.C() + 2*m.Ca() + m.Ta()
	var total time.Duration
	for i, k := range windows(n, w) {
		total += TimeBlast(m, k)
		if i > 0 {
			total -= min(time.Duration(k-1)*fill, exchange)
		}
	}
	return total
}

// ExpectedTimeMultiblast returns the expected elapsed time under
// independent per-packet loss pn when every window uses full
// retransmission on timeout with interval tr: windows are independent, so
// expectations add.
func ExpectedTimeMultiblast(m params.CostModel, n, w int, tr time.Duration, pn float64) time.Duration {
	var total float64
	for _, k := range windows(n, w) {
		e := ExpectedTimeBlast(TimeBlast(m, k), tr, k, pn)
		if e == time.Duration(math.MaxInt64) {
			return e
		}
		total += float64(e)
	}
	if total > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(total)
}

// StdDevMultiblast returns the standard deviation of the same model:
// window times are independent, so variances add.
func StdDevMultiblast(m params.CostModel, n, w int, tr time.Duration, pn float64) time.Duration {
	var varSum float64
	for _, k := range windows(n, w) {
		s := StdDevFullNoNak(TimeBlast(m, k), tr, k, pn)
		if s == time.Duration(math.MaxInt64) {
			return s
		}
		varSum += float64(s) * float64(s)
	}
	return time.Duration(math.Sqrt(varSum))
}

// OptimalWindow returns the window (among candidates) minimising the
// expected multiblast time for the given loss rate — the quantitative form
// of §3.1.3's advice. With pn = 0 the single blast always wins (no extra
// acks); as pn grows the optimum shrinks.
func OptimalWindow(m params.CostModel, n int, tr time.Duration, pn float64, candidates []int) int {
	best := 0
	bestT := time.Duration(math.MaxInt64)
	for _, w := range candidates {
		if t := ExpectedTimeMultiblast(m, n, w, tr, pn); t < bestT {
			bestT = t
			best = w
		}
	}
	return best
}
