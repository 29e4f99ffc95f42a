package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestGate runs the gate over synthetic snapshot/floor pairs: each failure
// mode on its own, and a snapshot that clears every kind of gate at once.
func TestGate(t *testing.T) {
	floor := floorFile{
		MinMBps:         map[string]float64{"pull": 100},
		ZeroRetransmits: []string{"push"},
		MaxAllocsPerOp:  map[string]int64{"pull": 200},
		// a pull that builds its rings afresh allocates ~700 KB
		MaxAllocBytesPerOp: map[string]int64{"pull": 1 << 20},
		Exact:              map[string]map[string]float64{"sim": {"events_per_pkt": 9.5, "heap_peak": 70}},
	}
	const clean = `{"name": "pull", "mbps": 150, "allocs_per_op": 180, "alloc_bytes_per_op": 900000},
		{"name": "push", "mbps": 90, "retransmits": 0},
		{"name": "sim", "mbps": 300, "events_per_pkt": 9.5, "heap_peak": 70}`
	for _, c := range []struct {
		name, rows string
		want       string // "" passes; otherwise a line of the report
	}{
		{"clean pass", clean, ""},
		{"missing row", `{"name": "push"}, {"name": "sim", "events_per_pkt": 9.5, "heap_peak": 70}`, "MISSING from snapshot"},
		{"below the floor", strings.Replace(clean, `"mbps": 150`, `"mbps": 99.9`, 1), "REGRESSION"},
		{"exact mismatch", strings.Replace(clean, `"events_per_pkt": 9.5`, `"events_per_pkt": 9.50001`, 1), "events_per_pkt = 9.50001, committed 9.5  CHANGED"},
		{"exact field absent", strings.Replace(clean, `, "heap_peak": 70`, ``, 1), "heap_peak = <nil>, committed 70  CHANGED"},
		{"zero_retransmits hit", strings.Replace(clean, `"retransmits": 0`, `"retransmits": 3`, 1), "3 packets retransmitted"},
		{"allocation ceiling exceeded", strings.Replace(clean, `"allocs_per_op": 180`, `"allocs_per_op": 201`, 1), "201 allocs/op, ceiling 200  REGRESSION"},
		{"allocated-bytes ceiling exceeded", strings.Replace(clean, `"alloc_bytes_per_op": 900000`, `"alloc_bytes_per_op": 3100000`, 1), "3100000 alloc'd bytes/op, ceiling 1048576  REGRESSION"},
		{"allocated bytes absent", strings.Replace(clean, `, "alloc_bytes_per_op": 900000`, ``, 1), "alloc_bytes_per_op MISSING from snapshot"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var snap snapshot
			if err := json.Unmarshal([]byte(`{"benchmarks": [`+c.rows+`]}`), &snap); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			ok := gate(&out, snap, floor)
			if ok != (c.want == "") || !strings.Contains(out.String(), c.want) {
				t.Errorf("gate passed %v, want %v with %q in the report:\n%s", ok, c.want == "", c.want, out.String())
			}
		})
	}
}
