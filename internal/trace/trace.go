// Package trace records simulated activity spans and renders them as ASCII
// timelines, reproducing the paper's Figure 2 (single-packet exchange) and
// Figure 3 (stop-and-wait vs blast vs sliding-window pipelining) directly
// from simulator executions, and the component breakdown of Table 2.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blastlan/internal/sim"
)

// Recorder accumulates spans from a simulation run. Install Add as the
// network's Trace callback.
//
// Spans belonging to the post-measurement FIN (the sender's best-effort
// linger release, labelled "FIN" by the simulator) are dropped: they are
// teardown housekeeping that happens after the paper's measurement window
// closes, and including them would distort the Figure 2/3 renderings and
// the Table 2 breakdown.
type Recorder struct {
	spans []sim.Span
}

// Add records one span.
func (r *Recorder) Add(s sim.Span) {
	if strings.Contains(s.Label, "FIN") {
		return
	}
	r.spans = append(r.spans, s)
}

// Window returns the earliest start and latest end across all spans.
func (r *Recorder) Window() (start, end time.Duration) {
	if len(r.spans) == 0 {
		return 0, 0
	}
	start, end = r.spans[0].Start, r.spans[0].End
	for _, s := range r.spans[1:] {
		if s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	return start, end
}

// laneKey orders timeline rows: senders first, the wire in the middle,
// receivers last — matching the layout of the paper's Figure 3.
func laneKey(host, lane string) int {
	switch {
	case host == "src":
		return 0
	case host == "net":
		return 1
	case host == "dst":
		return 2
	}
	return 3
}

// Render draws the recorded spans as an ASCII Gantt chart of the given
// width (characters of timeline, excluding the row labels). Each row is one
// (host, lane); spans are filled with '█' for CPU activity and '▒' for wire
// occupancy, with the span label embedded when it fits.
func (r *Recorder) Render(width int) string {
	if len(r.spans) == 0 {
		return "(no spans)\n"
	}
	if width <= 10 {
		width = 72
	}
	start, end := r.Window()
	span := end - start
	if span <= 0 {
		span = 1
	}
	scale := func(t time.Duration) int {
		x := int(int64(width) * int64(t-start) / int64(span))
		if x < 0 {
			x = 0
		}
		if x > width {
			x = width
		}
		return x
	}

	// Collect rows in a stable, Figure-3-like order.
	type rowid struct{ host, lane string }
	rows := map[rowid][]sim.Span{}
	var ids []rowid
	for _, s := range r.spans {
		id := rowid{s.Host, s.Lane}
		if _, ok := rows[id]; !ok {
			ids = append(ids, id)
		}
		rows[id] = append(rows[id], s)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if ka, kb := laneKey(a.host, a.lane), laneKey(b.host, b.lane); ka != kb {
			return ka < kb
		}
		if a.host != b.host {
			return a.host < b.host
		}
		return a.lane < b.lane
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s t=%v … %v (%v total)\n", "", start, end, span)
	for _, id := range ids {
		line := []rune(strings.Repeat(" ", width))
		fill := '█'
		if id.lane == sim.LaneWire {
			fill = '▒'
		}
		for _, s := range rows[id] {
			lo, hi := scale(s.Start), scale(s.End)
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			for x := lo; x < hi; x++ {
				line[x] = fill
			}
			// Embed the label if the box can hold it.
			if label := []rune(s.Label); hi-lo >= len(label)+2 {
				for i, ch := range label {
					line[lo+1+i] = ch
				}
			}
		}
		fmt.Fprintf(&b, "%-10s %s\n", id.host+" "+id.lane, string(line))
	}
	return b.String()
}

// BreakdownRow is one component of a Table 2-style cost breakdown.
type BreakdownRow struct {
	Operation string
	Time      time.Duration
}

// Breakdown aggregates span durations into the paper's Table 2 components:
// per-host copy-in/copy-out of data and ack packets and their wire times,
// in first-occurrence order.
func (r *Recorder) Breakdown() []BreakdownRow {
	type key struct{ host, lane, label string }
	totals := map[key]time.Duration{}
	var order []key
	for _, s := range r.spans {
		k := key{s.Host, s.Lane, s.Label}
		if _, ok := totals[k]; !ok {
			order = append(order, k)
		}
		totals[k] += s.End - s.Start
	}
	out := make([]BreakdownRow, 0, len(order))
	for _, k := range order {
		out = append(out, BreakdownRow{
			Operation: describe(k.host, k.lane, k.label),
			Time:      totals[k],
		})
	}
	return out
}

// describe renders a span key in the wording of the paper's Table 2.
func describe(host, lane, label string) string {
	dir, kind := splitLabel(label)
	pktName := "data"
	if strings.HasPrefix(kind, "ACK") || strings.HasPrefix(kind, "NAK") {
		pktName = "ack"
	}
	if lane == sim.LaneWire {
		return fmt.Sprintf("Transmit %s", pktName)
	}
	side := "sender's"
	if host == "dst" {
		side = "receiver's"
	}
	switch dir {
	case "in":
		return fmt.Sprintf("Copy %s into %s interface", pktName, side)
	case "out":
		return fmt.Sprintf("Copy %s out of %s interface", pktName, side)
	}
	return fmt.Sprintf("%s %s %s", host, lane, label)
}

// splitLabel splits "in:DATA" into ("in", "DATA"); wire labels like
// "DATA 3" return ("", "DATA 3").
func splitLabel(label string) (dir, kind string) {
	if i := strings.IndexByte(label, ':'); i >= 0 {
		return label[:i], label[i+1:]
	}
	return "", label
}

// Total sums all rows — Table 2's "Total" line.
func Total(rows []BreakdownRow) time.Duration {
	var t time.Duration
	for _, r := range rows {
		t += r.Time
	}
	return t
}
