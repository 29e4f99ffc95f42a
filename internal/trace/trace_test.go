package trace

import (
	"strings"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/sim"
	"blastlan/internal/simrun"
)

func record(t *testing.T, cfg core.Config, cost params.CostModel) *Recorder {
	t.Helper()
	var rec Recorder
	res, err := simrun.Transfer(cfg, simrun.Options{Cost: cost, Trace: rec.Add})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("transfer failed: %v %v", res.SendErr, res.RecvErr)
	}
	return &rec
}

func onePacketExchange(t *testing.T) *Recorder {
	return record(t, core.Config{
		TransferID: 1, Bytes: 1024, Protocol: core.StopAndWait,
		RetransTimeout: 100 * time.Millisecond,
	}, params.Standalone3Com())
}

func TestEmptyRecorder(t *testing.T) {
	var r Recorder
	if got := r.Render(80); !strings.Contains(got, "no spans") {
		t.Errorf("empty render = %q", got)
	}
	s, e := r.Window()
	if s != 0 || e != 0 {
		t.Error("empty window should be zero")
	}
	if len(r.Breakdown()) != 0 {
		t.Error("empty breakdown")
	}
}

// A single-packet reliable exchange must decompose into exactly Table 2's
// six components with the paper's values.
func TestTable2Breakdown(t *testing.T) {
	rec := onePacketExchange(t)
	rows := rec.Breakdown()
	want := map[string]time.Duration{
		"Copy data into sender's interface":     1350 * time.Microsecond,
		"Transmit data":                         819200 * time.Nanosecond,
		"Copy data out of receiver's interface": 1350 * time.Microsecond,
		"Copy ack into receiver's interface":    170 * time.Microsecond,
		"Transmit ack":                          51200 * time.Nanosecond,
		"Copy ack out of sender's interface":    170 * time.Microsecond,
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		w, ok := want[r.Operation]
		if !ok {
			t.Errorf("unexpected row %q", r.Operation)
			continue
		}
		if r.Time != w {
			t.Errorf("%s = %v, want %v", r.Operation, r.Time, w)
		}
	}
	// Total ≈ 3.91 ms (Table 2's components sum).
	total := Total(rows)
	if total < 3900*time.Microsecond || total > 3920*time.Microsecond {
		t.Errorf("total = %v, want ≈ 3.91 ms", total)
	}
}

func TestRenderContainsLanes(t *testing.T) {
	rec := onePacketExchange(t)
	out := rec.Render(100)
	for _, want := range []string{"src cpu", "net wire", "dst cpu", "█", "▒"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Rows are ordered sender, wire, receiver (Figure 3 layout).
	src := strings.Index(out, "src cpu")
	net := strings.Index(out, "net wire")
	dst := strings.Index(out, "dst cpu")
	if !(src < net && net < dst) {
		t.Errorf("row order wrong:\n%s", out)
	}
}

// The blast timeline must show overlapped (pipelined) activity: total
// wall time strictly less than the sum of span durations on src and dst.
func TestBlastTimelineOverlaps(t *testing.T) {
	rec := record(t, core.Config{
		TransferID: 1, Bytes: 3 * 1024, Protocol: core.Blast,
		Strategy: core.GoBackN, RetransTimeout: 100 * time.Millisecond,
	}, params.Standalone3Com())
	start, end := rec.Window()
	wall := end - start
	var busy time.Duration
	for _, s := range rec.spans {
		if s.Lane == sim.LaneCPU {
			busy += s.End - s.Start
		}
	}
	if busy <= wall {
		t.Errorf("no CPU overlap: busy=%v wall=%v (blast should pipeline)", busy, wall)
	}
}

// Stop-and-wait must NOT overlap: the two processors are never active in
// parallel (§2.1.2), so summed CPU+wire activity ≤ wall time.
func TestStopAndWaitTimelineSerial(t *testing.T) {
	rec := record(t, core.Config{
		TransferID: 1, Bytes: 3 * 1024, Protocol: core.StopAndWait,
		RetransTimeout: 100 * time.Millisecond,
	}, params.Standalone3Com())
	start, end := rec.Window()
	wall := end - start
	var busy time.Duration
	for _, s := range rec.spans {
		busy += s.End - s.Start
	}
	if busy > wall {
		t.Errorf("stop-and-wait overlapped: busy=%v wall=%v", busy, wall)
	}
}

func TestRenderTinyWidthDefaults(t *testing.T) {
	rec := onePacketExchange(t)
	out := rec.Render(1)
	if !strings.Contains(out, "src cpu") {
		t.Error("tiny width should fall back to default")
	}
}
