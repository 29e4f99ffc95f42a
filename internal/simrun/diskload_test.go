package simrun

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"blastlan/internal/disk"
	"blastlan/internal/store"
)

// eagle is the disk rows' paper-era disk.
var eagle = disk.FujitsuEagle()

// A thundering herd against one cold cache costs exactly one pass over the
// platter: with the cache at least file-sized, the store reads each extent
// once no matter how many clients pulled — far fewer disk accesses than
// chunks served.
func TestDiskLoadSingleReadPerChunk(t *testing.T) {
	const fileBytes, chunk = 8*store.ExtentBytes + 5000, 1 << 10
	sc := LoadScenario{Name: "herd", N: 8, Bytes: []int{fileBytes}, Chunk: chunk, Disk: &eagle, Seed: 42}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.N || res.Served != sc.N {
		t.Fatalf("completed %d served %d, want %d", res.Completed, res.Served, sc.N)
	}
	extents := int64((fileBytes + store.ExtentBytes - 1) / store.ExtentBytes)
	if res.Store.ReadOps != extents {
		t.Errorf("ReadOps = %d, want exactly %d (one disk pass of ceil(size/extent) reads for %d clients)",
			res.Store.ReadOps, extents, sc.N)
	}
	if res.Store.Misses != extents {
		t.Errorf("Misses = %d, want %d (single-flight)", res.Store.Misses, extents)
	}
	if res.Store.Hits == 0 {
		t.Error("no cache hits across 8 pullers of one file")
	}
	if res.Store.Evictions != 0 {
		t.Errorf("evictions = %d with an ample cache", res.Store.Evictions)
	}
}

// Same seed, same bits: the whole result — every virtual timestamp and
// every store counter — reproduces exactly across runs.
func TestDiskLoadDeterministic(t *testing.T) {
	const fileBytes = 16 * store.ExtentBytes
	sc := LoadScenario{
		Name:       "det",
		N:          6,
		Bytes:      []int{fileBytes},
		Chunk:      1 << 10,
		Arrival:    18 * time.Millisecond,
		Disk:       &eagle,
		CacheBytes: fileBytes / 4, // pressure: evictions must reproduce too
		Seed:       7,
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs diverged:\n a = %+v\n b = %+v", a, b)
	}
	if a.Completed != sc.N {
		t.Fatalf("completed %d, want %d", a.Completed, sc.N)
	}
	if a.Store.Evictions == 0 {
		t.Error("no evictions with a cache a quarter of the file")
	}
	if a.Store.ReadOps <= fileBytes/store.ExtentBytes {
		t.Errorf("ReadOps = %d: eviction pressure should force re-reads", a.Store.ReadOps)
	}
}

// Cold versus hot through the same store: a late second client pulls the
// whole file from cache and finishes far faster than the first, whose cold
// read is bounded below by the disk model's full-file read time.
func TestDiskLoadColdVsHot(t *testing.T) {
	const fileBytes, chunk = 1 << 20, 1 << 10
	sc := LoadScenario{Name: "coldhot", N: 2, Bytes: []int{fileBytes}, Chunk: chunk, Arrival: time.Minute, Disk: &eagle, Seed: 3}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d, want 2", res.Completed)
	}
	cold, hot := res.Clients[0], res.Clients[1]
	if hot.Arrival < cold.Arrival {
		cold, hot = hot, cold
	}
	if hot.Arrival < cold.End {
		t.Fatalf("seed %d drew the hot client (at %v) into the cold pull (%v to %v)", sc.Seed, hot.Arrival, cold.Start, cold.End)
	}
	// The cold pull cannot beat the platter: its elapsed time is at least
	// the model's cost of reading the file in extent-sized pages.
	diskFloor := eagle.FileReadTime(fileBytes, store.ExtentBytes)
	if cold.Elapsed < diskFloor {
		t.Errorf("cold pull took %v, below the disk floor %v", cold.Elapsed, diskFloor)
	}
	if hot.Elapsed*4 > cold.Elapsed {
		t.Errorf("hot pull (%v) not ≫ faster than cold (%v)", hot.Elapsed, cold.Elapsed)
	}
	if res.Store.ReadOps != fileBytes/store.ExtentBytes {
		t.Errorf("ReadOps = %d, want %d (hot client cost zero disk reads)",
			res.Store.ReadOps, fileBytes/store.ExtentBytes)
	}
}

// A stat refused at admission is retried on the server's RETRY-AFTER hint,
// not after Tr of silence: with a session cap of one and both clients
// arriving together, the loser's stat earns BUSY, and with Tr deliberately
// huge its whole stat + pull must still finish well inside one Tr wait.
func TestDiskLoadStatHonorsBusy(t *testing.T) {
	sc := LoadScenario{Name: "busy-stat", N: 2, Bytes: []int{2 * store.ExtentBytes}, Chunk: 1 << 10,
		Tr: 5 * time.Second, Concurrency: 1, Disk: &eagle, Seed: 3}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.N || res.Served != sc.N {
		t.Fatalf("completed %d served %d, want %d", res.Completed, res.Served, sc.N)
	}
	for _, c := range res.Clients {
		if c.Elapsed >= sc.Tr {
			t.Errorf("client %d took %v: its refused stat waited out Tr = %v instead of the BUSY hint",
				c.Client, c.Elapsed, sc.Tr)
		}
	}
	again, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("BUSY-retried stat is not deterministic across runs")
	}
}

// A disk row runs on the simulator only, and RunUDP says why.
func TestDiskLoadRefusesUDP(t *testing.T) {
	_, err := LoadScenario{Name: "disk", Disk: &eagle}.RunUDP(UDP{})
	if err == nil || !strings.Contains(err.Error(), "virtual clock") {
		t.Fatalf("RunUDP on a disk row = %v, want the simulator-only refusal", err)
	}
}
