package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/disk"
	"blastlan/internal/wire"
)

// fakeEnv is a minimal core.Env for driving sources outside a substrate:
// Compute accumulates virtual time, which is how the SimFS tests observe
// disk-model charges.
type fakeEnv struct{ t time.Duration }

func (e *fakeEnv) Now() time.Duration           { return e.t }
func (e *fakeEnv) Compute(d time.Duration)      { e.t += d }
func (e *fakeEnv) Send(*wire.Packet) error      { return nil }
func (e *fakeEnv) SendAsync(*wire.Packet) error { return nil }
func (e *fakeEnv) Recv(time.Duration) (*wire.Packet, error) {
	return nil, fmt.Errorf("fakeEnv has no packets")
}

// memFS counts backing reads, optionally dawdling to widen race windows.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	content []byte
	delay   time.Duration
	gate    chan struct{} // when non-nil, reads block (already counted) until it closes
	mu      sync.Mutex
	reads   int
}

func newMemFS() *memFS { return &memFS{files: map[string]*memFile{}} }

func (m *memFS) add(name string, size int, delay time.Duration) *memFile {
	content := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(size)))
	rng.Read(content)
	f := &memFile{content: content, delay: delay}
	m.mu.Lock()
	m.files[name] = f
	m.mu.Unlock()
	return f
}

func (m *memFS) Open(name string) (File, error) {
	m.mu.Lock()
	f := m.files[name]
	m.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("no such file %q", name)
	}
	return f, nil
}

func (f *memFile) Size() int64 { return int64(len(f.content)) }

func (f *memFile) ReadAt(_ core.Env, p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.reads++
	f.mu.Unlock()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.gate != nil {
		<-f.gate
	}
	if off < 0 || off > int64(len(f.content)) {
		return 0, fmt.Errorf("read at %d outside %d bytes", off, len(f.content))
	}
	return copy(p, f.content[off:]), nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) readCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// pullAll drains the whole object through a fresh source and returns the
// reassembled bytes.
func pullAll(t *testing.T, s *Store, name string, chunk int, env core.Env) []byte {
	t.Helper()
	size, ok := s.StatReq(wire.Req{Name: name})
	if !ok {
		t.Fatalf("stat %q failed", name)
	}
	src, err := s.Source(name, chunk, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, size)
	buf := make([]byte, chunk)
	for seq := 0; int64(len(out)) < size; seq++ {
		b := src(seq, buf)
		if len(b) == 0 {
			t.Fatalf("source dried up at seq %d (%d of %d bytes)", seq, len(out), size)
		}
		out = append(out, b...)
	}
	return out
}

func TestDirFSServesAndValidates(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 300000)
	rand.New(rand.NewSource(7)).Read(content)
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "blob.bin"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	s := Open(dir, Options{})
	defer s.Close()

	got := pullAll(t, s, "sub/blob.bin", 1400, nil)
	if !bytes.Equal(got, content) {
		t.Fatal("pulled bytes differ from the file")
	}
	// Hostile names never escape the root.
	for _, name := range []string{"../blob", "/etc/passwd", "sub/../../x", ".", "", "sub"} {
		if _, ok := s.StatReq(wire.Req{Name: name}); ok {
			t.Errorf("StatReq(%q) resolved", name)
		}
	}
}

// extentSeq is the packet seq of the first chunk inside extent i, for
// chunk sizes that divide ExtentBytes.
func extentSeq(i, chunk int) int { return i * (ExtentBytes / chunk) }

// The acceptance criterion: N concurrent pullers of one cold file trigger
// exactly one backing read per extent — the cache's single-flight fan-out,
// verified under -race by the CI race job.
func TestSingleFlightFanOut(t *testing.T) {
	const (
		pullers = 8
		chunk   = 1024
		extents = 8
		chunks  = extents * ExtentBytes / chunk
	)
	fs := newMemFS()
	f := fs.add("hot.bin", extents*ExtentBytes, 200*time.Microsecond)
	s := New(fs, Options{CacheBytes: 64 << 20})
	defer s.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, pullers)
	for i := 0; i < pullers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			src, err := s.Source("hot.bin", chunk, 0, nil)
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, chunk)
			for seq := 0; seq < chunks; seq++ {
				b := src(seq, buf)
				want := f.content[seq*chunk : (seq+1)*chunk]
				if !bytes.Equal(b, want) {
					errs <- fmt.Errorf("puller got wrong bytes at seq %d", seq)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ReadOps != extents {
		t.Errorf("ReadOps = %d, want exactly %d (one per extent)", st.ReadOps, extents)
	}
	if got := f.readCount(); got != extents {
		t.Errorf("backing ReadAt calls = %d, want exactly %d", got, extents)
	}
	if st.Hits == 0 {
		t.Error("fan-out produced no cache hits")
	}
}

// Read-ahead keeps a window of extents in flight behind the sender: after
// serving the first chunk the following extents must land undemanded.
func TestReadAheadPipelines(t *testing.T) {
	const chunk, extents = 2048, 32
	fs := newMemFS()
	fs.add("ra.bin", extents*ExtentBytes, 0)
	s := New(fs, Options{CacheBytes: 64 << 20, ReadAhead: 8, Prefetchers: 8})
	defer s.Close()

	src, err := s.Source("ra.bin", chunk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	src(0, buf)
	// Extents 1..8 should land without being demanded.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().BytesCached < 9*ExtentBytes {
		if time.Now().After(deadline) {
			t.Fatalf("read-ahead idle: %d bytes cached after chunk 0", s.Stats().BytesCached)
		}
		time.Sleep(time.Millisecond)
	}
	before := s.Stats().Misses
	src(extentSeq(1, chunk), buf)
	src(extentSeq(2, chunk), buf)
	if after := s.Stats().Misses; after != before {
		t.Errorf("extents 1-2 missed (%d -> %d misses) despite read-ahead", before, after)
	}
}

// CLOCK eviction: fresh extents enter cold (scan-resistant), re-referenced
// extents get a second chance, and the victim's slot is reused in place.
func TestClockEviction(t *testing.T) {
	const chunk = 1024
	fs := newMemFS()
	fs.add("ev.bin", 16*ExtentBytes, 0)
	s := New(fs, Options{CacheBytes: 4 * ExtentBytes, ReadAhead: -1})
	defer s.Close()

	src, err := s.Source("ev.bin", chunk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	touch := func(extent int) { src(extentSeq(extent, chunk), buf) }
	for i := 0; i < 4; i++ {
		touch(i)
	}
	touch(0) // re-reference extent 0: hot bit set
	reads := s.Stats().ReadOps
	touch(4) // cache full: CLOCK clears 0's hot bit, evicts cold 1
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d past the budget, want 1", got)
	}
	touch(0) // survived its second chance
	if got := s.Stats().ReadOps; got != reads+1 {
		t.Errorf("re-read of hot extent 0 went to disk (ReadOps %d -> %d)", reads, got)
	}
	touch(1) // the cold victim was evicted
	if got := s.Stats().ReadOps; got != reads+2 {
		t.Errorf("evicted extent 1 not re-read (ReadOps %d -> %d)", reads, got)
	}
	if got, want := len(s.c.ring), 4; got != want {
		t.Errorf("ring has %d slots after evictions, want the fixed %d", got, want)
	}
	if got := s.Stats().BytesCached; got != 4*ExtentBytes {
		t.Errorf("BytesCached = %d, want %d", got, 4*ExtentBytes)
	}
}

// A source keeps serving from the extent it is inside after CLOCK has
// evicted it: its pin keeps the buffer off the free list, so the held
// extent stays valid and costs no second read.
func TestHeldExtentSurvivesEviction(t *testing.T) {
	const chunk = 1000
	fs := newMemFS()
	f := fs.add("held.bin", 8*ExtentBytes, 0)
	s := New(fs, Options{CacheBytes: 2 * ExtentBytes, ReadAhead: -1})
	defer s.Close()

	holder, err := s.Source("held.bin", chunk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	holder(0, buf)
	pullAll(t, s, "held.bin", chunk, nil) // churns extent 0 out of the cache
	if s.objs["held.bin"].index[0].Load() != nil {
		t.Fatal("scenario sized to evict extent 0, but it is still cached")
	}
	reads := s.Stats().ReadOps
	if b := holder(1, buf); !bytes.Equal(b, f.content[chunk:2*chunk]) {
		t.Error("held extent served wrong bytes after its eviction")
	}
	if got := s.Stats().ReadOps; got != reads {
		t.Errorf("serving from a held extent cost %d backing reads", got-reads)
	}
}

// Pins under churn: readers serving chunks in place out of a 3-extent
// cache that their own misses and read-ahead churn, two in order with
// retransmissions and two hopping at random. Every chunk must match
// the file byte for byte, and once every range has ended no buffer may be
// on the free list twice or there while an extent still uses it. Freeing a
// buffer that a pin holds, or pinning an extent already gone, breaks one or
// the other (under -race, the race detector flags the shared buffer too).
func TestPinsUnderChurn(t *testing.T) {
	const readers = 4
	const size = 6*ExtentBytes + 777
	fs := newMemFS()
	f := fs.add("churn.bin", size, 0)
	s := New(fs, Options{CacheBytes: 3 * ExtentBytes, ReadAhead: 2, Prefetchers: 2})
	defer s.Close()

	ranges := 1000
	if testing.Short() {
		ranges = 200
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			chunk := []int{1000, 4000, 1400, 9000}[g] // each extent entered after 14 to 131 chunks
			total := (size + chunk - 1) / chunk
			buf := make([]byte, chunk)
			check := func(src core.ChunkSource, lo, seq int) bool {
				off := (lo + seq) * chunk
				want := f.content[off:min(off+chunk, size)]
				if got := src(seq, buf); !bytes.Equal(got, want) {
					errs <- fmt.Errorf("reader %d: chunk %d differs from the file", g, lo+seq)
					return false
				}
				return true
			}
			for k := 0; k < ranges; k++ {
				lo := rng.Intn(total)
				n := 1 + rng.Intn(min(3*ExtentBytes/chunk, total-lo))
				r := wire.Req{Name: "churn.bin", Chunk: uint32(chunk), OffsetChunks: uint32(lo), Total: size,
					Bytes: uint64(min(n*chunk, size-lo*chunk))}
				src, ok := s.SourceReq(r, nil)
				if !ok {
					errs <- fmt.Errorf("reader %d: range %+v refused", g, r)
					return
				}
				for seq := 0; seq < n; seq++ {
					at := seq
					if g%2 == 1 {
						at = rng.Intn(n) // a reader that hops, entering extents through the index
					}
					if !check(src, lo, at) {
						return
					}
					if rng.Intn(10) == 0 && !check(src, lo, rng.Intn(seq+1)) { // a retransmission
						return
					}
				}
				if !check(src, lo, n-1) { // the last chunk again, after its pin was dropped
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.sem) > 0 && time.Now().Before(deadline) { // read-ahead still in flight
		time.Sleep(time.Millisecond)
	}

	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	owner := map[*byte]string{}
	claim := func(b []byte, who string) {
		if len(b) == 0 {
			return
		}
		if prev, dup := owner[&b[0]]; dup {
			t.Errorf("one buffer held twice: %s and %s", prev, who)
		}
		owner[&b[0]] = who
	}
	for i, b := range s.c.free {
		claim(b, fmt.Sprintf("free list entry %d", i))
	}
	for _, e := range s.c.ring {
		if e == nil || e.state.Load() != extentFilled {
			continue
		}
		if pins := e.ref.Load() &^ gone; pins != 0 {
			t.Errorf("extent %d holds %d pins after every range ended", e.idx, pins)
		}
		claim(e.buf, fmt.Sprintf("cached extent %d", e.idx))
	}
	if st := s.Stats(); st.Recycled == 0 || st.Evictions == 0 {
		t.Errorf("scenario sized to churn, but %+v", st)
	}
}

// The evict regime makes no garbage: a cyclic scan of a file larger than
// the cache fills every extent into an evicted one's buffer, so in steady
// state Recycled rises with ReadOps and an extent costs its small header,
// not its ExtentBytes.
func TestEvictRegimeMakesNoGarbage(t *testing.T) {
	const chunk, extents = 1000, 16
	fs := newMemFS()
	f := fs.add("cycle.bin", extents*ExtentBytes, 0)
	s := New(fs, Options{CacheBytes: 4 * ExtentBytes, ReadAhead: -1})
	defer s.Close()
	src, err := s.Source("cycle.bin", chunk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := extents * ExtentBytes / chunk
	buf := make([]byte, chunk)
	scan := func() {
		for seq := 0; seq < total; seq++ {
			if b := src(seq, buf); !bytes.Equal(b, f.content[seq*chunk:min((seq+1)*chunk, len(f.content))]) {
				t.Fatalf("chunk %d differs from the file", seq)
			}
		}
	}
	scan() // fills the cache and the free list
	before := s.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const passes = 4
	for i := 0; i < passes; i++ {
		scan()
	}
	runtime.ReadMemStats(&m1)
	after := s.Stats()
	reads, recycled := after.ReadOps-before.ReadOps, after.Recycled-before.Recycled
	if reads != passes*extents {
		t.Fatalf("ReadOps rose %d over %d passes of %d extents: the scan should never hit", reads, passes, extents)
	}
	if recycled != reads {
		t.Errorf("Recycled rose %d while ReadOps rose %d: some fills allocated", recycled, reads)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(reads); per > 1<<10 {
		t.Errorf("%d bytes allocated per extent filled, want the extent's header only (under 1 KiB)", per)
	}
}

// An extent mid-fill is never evicted: with every slot pending the ring
// grows instead, so late arrivals still join the one read in flight.
func TestPendingNeverEvicted(t *testing.T) {
	const chunk, extents = 1024, 4
	fs := newMemFS()
	f := fs.add("pend.bin", extents*ExtentBytes, 0)
	f.gate = make(chan struct{})
	s := New(fs, Options{CacheBytes: ExtentBytes, ReadAhead: -1}) // one slot
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2*extents)
	pull := func(extent int) {
		defer wg.Done()
		src, err := s.Source("pend.bin", chunk, 0, nil)
		if err != nil {
			errs <- err
			return
		}
		seq := extentSeq(extent, chunk)
		if b := src(seq, make([]byte, chunk)); !bytes.Equal(b, f.content[seq*chunk:(seq+1)*chunk]) {
			errs <- fmt.Errorf("extent %d served wrong bytes", extent)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	wg.Add(2 * extents)
	for i := 0; i < extents; i++ {
		go pull(i)
	}
	waitFor("every extent's read to be in flight", func() bool { return f.readCount() == extents })
	for i := 0; i < extents; i++ {
		go pull(i) // joins the pending fill
	}
	waitFor("the late pullers to join", func() bool { return s.Stats().Hits == extents })
	close(f.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := f.readCount(); got != extents {
		t.Errorf("backing reads = %d, want %d: a pending extent was evicted and re-read", got, extents)
	}
	if got := s.Stats().Evictions; got != 0 {
		t.Errorf("Evictions = %d while every slot was mid-fill", got)
	}
}

// Chunks are byte ranges, not cache keys: any chunk size — dividing the
// extent or not, smaller than it or larger — over any stripe split of a
// file with a short tail reassembles to the file, boundary-straddling
// chunks included.
func TestOddChunkSizesAndStripes(t *testing.T) {
	const size = 3*ExtentBytes + 4321
	fs := newMemFS()
	f := fs.add("odd.bin", size, 0)
	s := New(fs, Options{CacheBytes: 2 * ExtentBytes}) // under eviction pressure throughout
	defer s.Close()

	for _, chunk := range []int{1000, 1400, 1, ExtentBytes + 1} {
		total := (size + chunk - 1) / chunk
		for _, stripes := range []int{1, 2, 3} {
			got := make([]byte, 0, size)
			buf := make([]byte, chunk)
			for k := 0; k < stripes; k++ {
				lo, hi := total*k/stripes, total*(k+1)/stripes
				src, err := s.Source("odd.bin", chunk, lo, nil)
				if err != nil {
					t.Fatal(err)
				}
				for seq := 0; seq < hi-lo; seq++ {
					got = append(got, src(seq, buf)...)
				}
				if k == stripes-1 {
					if b := src(hi-lo, buf); len(b) != 0 {
						t.Errorf("chunk %d: %d bytes served past the end", chunk, len(b))
					}
				}
			}
			if !bytes.Equal(got, f.content) {
				t.Errorf("chunk %d over %d stripe(s): reassembly differs from the file", chunk, stripes)
			}
		}
	}
}

// Cache keys are independent of the REQ's chunk size: a pull at chunk
// 1400 after one at chunk 1000 is all hits and costs no backing read.
func TestChunkSizesShareExtents(t *testing.T) {
	const size = 5*ExtentBytes + 99
	fs := newMemFS()
	f := fs.add("share.bin", size, 0)
	s := New(fs, Options{})
	defer s.Close()

	if !bytes.Equal(pullAll(t, s, "share.bin", 1000, nil), f.content) {
		t.Fatal("first pull differs from the file")
	}
	before := s.Stats()
	if before.ReadOps != 6 {
		t.Fatalf("ReadOps = %d after a cold pull of 6 extents", before.ReadOps)
	}
	if !bytes.Equal(pullAll(t, s, "share.bin", 1400, nil), f.content) {
		t.Fatal("second pull differs from the file")
	}
	after := s.Stats()
	if after.ReadOps != before.ReadOps || after.Misses != before.Misses {
		t.Errorf("pull at a second chunk size went to disk: %+v -> %+v", before, after)
	}
	if after.Hits != before.Hits+6 {
		t.Errorf("second pull made %d extent hits, want 6", after.Hits-before.Hits)
	}
}

// The ROADMAP 5c bound: index memory is O(size/ExtentBytes) per object no
// matter what chunk sizes clients ask for. A Chunk=1 source over a 1 GiB
// object used to allocate an 8 GiB pointer slice, and one more slice per
// distinct chunk size.
func TestIndexMemoryIndependentOfChunkSize(t *testing.T) {
	const size = 1 << 30
	dir := t.TempDir()
	file, err := os.Create(filepath.Join(dir, "sparse.bin"))
	if err != nil {
		t.Fatal(err)
	}
	marks := []int64{0, ExtentBytes - 700, size - 1500} // start, an extent boundary, the tail
	mark := bytes.Repeat([]byte("blastlan"), 175)       // 1400 bytes
	for _, off := range marks {
		if _, err := file.WriteAt(mark, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := file.Truncate(size); err != nil {
		t.Fatal(err)
	}
	file.Close()
	s := Open(dir, Options{ReadAhead: -1})
	defer s.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	one, err := s.Source("sparse.bin", 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Source("sparse.bin", 1400, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	index := uint64(size / ExtentBytes * 8)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*index {
		t.Errorf("two sources over a 1 GiB object allocated %d bytes, want about the %d-byte index", got, index)
	}
	buf1, bufW := make([]byte, 1), make([]byte, 1400)
	for _, off := range marks {
		off -= off % 1400
		want := append([]byte(nil), wide(int(off/1400), bufW)...)
		got := make([]byte, 0, len(want))
		for i := range want {
			got = append(got, one(int(off)+i, buf1)...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Chunk=1 and Chunk=1400 disagree at offset %d", off)
		}
		if !bytes.Contains(want, mark[:700]) {
			t.Errorf("chunk at offset %d misses the bytes written there", off)
		}
	}
}

// Eviction cost must not depend on how much is cached: the victim's slot
// is reused in place. (The chunk-grained ring memmoved every later entry
// per eviction, so an 8x larger cache evicted 8x slower — cli_get's cliff.)
func TestEvictionCostIndependentOfCacheSize(t *testing.T) {
	perEviction := func(slots int) time.Duration {
		c := newCache(int64(slots)*ExtentBytes, false)
		o := &object{index: make([]atomic.Pointer[extent], 2*slots)}
		next := 0 // cyclic over twice the cache: once it is full, every acquire misses
		cycle := func(n int) {
			for ; n > 0; n-- {
				e, owner := c.acquire(o, next%len(o.index), false)
				if !owner {
					t.Fatalf("extent %d still cached in a cyclic scan of twice the cache", next%len(o.index))
				}
				c.publish(e, nil, nil)
				next++
			}
		}
		cycle(slots) // fill: from here every acquire evicts
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			const n = 1 << 16
			t0 := time.Now()
			cycle(n)
			best = min(best, time.Since(t0)/n)
		}
		if got := c.evictions.Load(); got < 5<<16 {
			t.Fatalf("%d-slot cache evicted %d times, want one per acquire", slots, got)
		}
		return best
	}
	small, large := perEviction(512), perEviction(8*512)
	t.Logf("per eviction: %v at 512 slots, %v at 4096", small, large)
	if large > 3*small+50*time.Nanosecond {
		t.Errorf("eviction cost grew with the cache: %v at 512 slots, %v at 4096", small, large)
	}
}

// The DES read path: a cold sequential file read through the store costs
// exactly disk.FileReadTime(size, ExtentBytes) of virtual time — the
// extent is the paper's large page, and the model is exact (short tail
// included), so the DES can gate on it deterministically.
func TestSimColdReadMatchesDiskModel(t *testing.T) {
	const chunk = 1024
	const size = 5*ExtentBytes + 777
	g := disk.FujitsuEagle()
	sfs := NewSimFS(g)
	sfs.Add("cold.bin", 42, size)
	s := New(sfs, Options{Sim: true, CacheBytes: 64 << 20})
	defer s.Close()

	env := &fakeEnv{}
	got := pullAll(t, s, "cold.bin", chunk, env)
	if !bytes.Equal(got, core.SeededPayload(42, size, 1024)) {
		t.Fatal("sim content mismatch")
	}
	want := g.FileReadTime(size, ExtentBytes)
	if env.t != want {
		t.Errorf("cold read cost %v, disk model says %v", env.t, want)
	}
	// Hot re-read is free of disk time entirely.
	env2 := &fakeEnv{}
	pullAll(t, s, "cold.bin", chunk, env2)
	if env2.t != 0 {
		t.Errorf("hot re-read charged %v of disk time", env2.t)
	}
	if st := s.Stats(); st.ReadOps != 6 {
		t.Errorf("ReadOps = %d, want 6 extent reads", st.ReadOps)
	}
}

// Sim-mode determinism: two identical runs produce identical counters and
// identical virtual-time charges.
func TestSimDeterministic(t *testing.T) {
	run := func() (Stats, time.Duration) {
		g := disk.FujitsuEagle()
		sfs := NewSimFS(g)
		sfs.Add("d.bin", 9, 20*ExtentBytes+100)
		s := New(sfs, Options{Sim: true, CacheBytes: 4 * ExtentBytes})
		defer s.Close()
		env := &fakeEnv{}
		pullAll(t, s, "d.bin", 1000, env)
		pullAll(t, s, "d.bin", 1000, env)
		return s.Stats(), env.t
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("two identical sim runs diverged: %+v/%v vs %+v/%v", s1, t1, s2, t2)
	}
	if s1.Evictions == 0 {
		t.Error("scenario sized to evict, but nothing was evicted")
	}
}

func TestSourceReqValidation(t *testing.T) {
	fs := newMemFS()
	fs.add("ok.bin", 10_000, 0)
	s := New(fs, Options{})
	defer s.Close()

	ok := func(r wire.Req) bool {
		_, got := s.SourceReq(r, nil)
		return got
	}
	if !ok(wire.Req{Name: "ok.bin", Bytes: 10_000, Chunk: 1000}) {
		t.Error("valid pull rejected")
	}
	bad := []wire.Req{
		{Bytes: 1000, Chunk: 100},                                                  // anonymous: not ours
		{Name: "ok.bin", Bytes: 0, Chunk: 100},                                     // degenerate
		{Name: "ok.bin", Bytes: 1000, Chunk: 0},                                    // degenerate
		{Name: "ok.bin", Bytes: 1000, Chunk: 2 << 20},                              // absurd chunk
		{Name: "missing", Bytes: 1000, Chunk: 100},                                 // no such object
		{Name: "ok.bin", Bytes: 20_000, Chunk: 1000},                               // beyond EOF
		{Name: "ok.bin", Bytes: 5000, Chunk: 1000, OffsetChunks: 8, Total: 10_000}, // range past EOF
	}
	for i, r := range bad {
		if ok(r) {
			t.Errorf("bad req %d accepted: %+v", i, r)
		}
	}
	// Striped ranges resolve like unstriped ones.
	r := wire.Req{Name: "ok.bin", Bytes: 5000, Chunk: 1000, OffsetChunks: 5, Total: 10_000}
	src, got := s.SourceReq(r, nil)
	if !got {
		t.Fatal("striped tail rejected")
	}
	b := src(0, make([]byte, 1000))
	f, _ := fs.Open("ok.bin")
	want := f.(*memFile).content[5000:6000]
	if !bytes.Equal(b, want) {
		t.Error("striped source returned wrong range")
	}
	if size, got := s.StatReq(wire.Req{Name: "ok.bin", Stat: true}); !got || size != 10_000 {
		t.Errorf("StatReq = %d, %v", size, got)
	}
	if _, got := s.StatReq(wire.Req{Stat: true}); got {
		t.Error("anonymous stat accepted")
	}
}

func TestFileSinkLifecycle(t *testing.T) {
	dir := t.TempDir()
	var calls []bool
	sink := &FileSink{Dir: dir, MaxBytes: 1 << 20,
		OnDone: func(_ string, _ core.RecvResult, kept bool) { calls = append(calls, kept) }}

	// Satellite guard: degenerate push REQs are rejected up front, before
	// any file exists — mirroring the pull path's Bytes/Chunk check.
	for _, r := range []wire.Req{
		{Push: true, Bytes: 0, Chunk: 100},
		{Push: true, Bytes: 100, Chunk: 0},
		{Push: true, Bytes: 2 << 20, Chunk: 1000}, // over MaxBytes
	} {
		if _, _, ok := sink.SinkStream(r); ok {
			t.Errorf("degenerate push accepted: %+v", r)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatal("rejected pushes left files behind")
	}

	// A completed push keeps its file with the pushed bytes.
	put, done, ok := sink.SinkStream(wire.Req{Push: true, Bytes: 10, Chunk: 5})
	if !ok {
		t.Fatal("valid push rejected")
	}
	put(0, []byte("hello"))
	put(5, []byte("world"))
	done(core.RecvResult{Completed: true, Bytes: 10})
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected 1 stored file, found %d", len(ents))
	}
	b, _ := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if string(b) != "helloworld" {
		t.Errorf("stored %q", b)
	}

	// An aborted push closes and removes its partial file.
	put, done, ok = sink.SinkStream(wire.Req{Push: true, Bytes: 100, Chunk: 10})
	if !ok {
		t.Fatal("valid push rejected")
	}
	put(0, []byte("partial"))
	done(core.RecvResult{Completed: false, Bytes: 7})
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("aborted push not cleaned up: %d files", len(ents))
	}
	if want := []bool{true, false}; len(calls) != 2 || calls[0] != want[0] || calls[1] != want[1] {
		t.Errorf("OnDone kept flags = %v", calls)
	}

	// Verify-and-discard mode never touches the filesystem.
	discard := &FileSink{}
	put, done, ok = discard.SinkStream(wire.Req{Push: true, Bytes: 10, Chunk: 5})
	if !ok {
		t.Fatal("discard-mode push rejected")
	}
	put(0, []byte("hello"))
	done(core.RecvResult{Completed: true})
}

// ChunkFile gathers in-order deliveries into large writes but must still
// land every byte where it belongs when deliveries arrive out of order
// (a hole repaired later, interleaved stripes) or exceed its run buffer.
func TestChunkFileCoalescesAnyOrder(t *testing.T) {
	const size, chunk = 6*chunkRun + 12345, 1000
	want := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(want)
	name := filepath.Join(t.TempDir(), "out.bin")
	w, err := CreateChunkFile(name)
	if err != nil {
		t.Fatal(err)
	}
	put := func(lo, hi int) {
		for off := lo; off < hi; off += chunk {
			w.Sink(off, want[off:min(off+chunk, hi)])
		}
	}
	hole := 400 * chunk
	put(0, hole)                                                      // in order, across a full run buffer
	put(hole+chunk, 500*chunk)                                        // skip one chunk
	put(hole, hole+chunk)                                             // repair it
	w.Sink(500*chunk, want[500*chunk:500*chunk+2*chunkRun])           // one delivery larger than the buffer
	for off := 500*chunk + 2*chunkRun; off < size; off += 2 * chunk { // two interleaved stripes
		mid := off + chunk
		if mid < size {
			w.Sink(mid, want[mid:min(mid+chunk, size)])
		}
		w.Sink(off, want[off:min(off+chunk, size)])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("file differs from the delivered bytes")
	}
}

// Write-behind keeps the error contract of a synchronous file: the first
// failed write surfaces at Close, later deliveries neither block nor
// panic, and Close leaves no writer goroutine behind.
func TestChunkFileWriteBehindError(t *testing.T) {
	name := filepath.Join(t.TempDir(), "ro.bin")
	w, err := CreateChunkFile(name)
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	if w.f, err = os.Open(name); err != nil { // read-only: every write fails
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	chunk := make([]byte, 1000)
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		for off := 0; off < 8*chunkRun; off += len(chunk) {
			w.Sink(off, chunk)
		}
		w.Sink(0, chunk) // out of order after the failure
	}()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("deliveries blocked after a failed write")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported no error for a file whose writes all failed")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the first write", runtime.NumGoroutine(), base)
		}
	}
}
