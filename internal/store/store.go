// Package store is the disk-backed file store behind the serving side:
// real files served by name as core.ChunkSources through the shared
// session layer, so the simulator, the V kernel and the UDP daemon all
// pull from the same read path — platter to protocol engine.
//
// The paper's introduction motivates large pages with "economies in
// accessing the disk in large quantities as well as ... the network in
// large quantities"; this package supplies the disk half at serving time.
// Three pieces matter at fleet scale (the hot set must leave the disk
// once, not once per client):
//
//   - a hot-object cache of fixed-size file extents (ExtentBytes, far
//     larger than a packet), so one disk read fans out to N concurrent
//     pullers at any chunk size. A chunk inside one extent is served in
//     place, out of the extent's buffer, under the pin its reader holds;
//     an evicted extent's buffer is recycled for the next fill, so neither
//     hits nor misses allocate (cache.go);
//   - single-flight fills: N sessions racing for the same cold extent
//     trigger exactly one backing read;
//   - pipelined read-ahead that stays a configurable window of extents
//     ahead of the sender on real substrates. On the DES there are no
//     background goroutines: each miss is one synchronous extent read,
//     which the disk model charges as one large page (the extent IS the
//     paper's page-size economy).
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// maxChunk bounds a client-requested chunk size: above this a REQ is
// rejected rather than allocating attacker-sized scratch per chunk. Real
// substrates bound chunks at the MTU long before this; the DES has no MTU.
const maxChunk = 1 << 20

// Options configures a Store.
type Options struct {
	// CacheBytes is the hot-object cache budget, rounded down to whole
	// extents (at least one). Default 256 MiB.
	CacheBytes int64

	// ReadAhead is how many extents the store keeps in flight ahead of the
	// sender (real substrates only). Default 8; negative disables
	// read-ahead.
	ReadAhead int

	// Prefetchers caps concurrent background prefetch reads (real
	// substrates only). Default 4.
	Prefetchers int

	// Sim selects DES mode: no goroutines (a miss is a synchronous extent
	// read charged to the session's virtual clock) and cache waits poll in
	// virtual time. Required when the Store serves simulator sessions;
	// forbidden otherwise.
	Sim bool

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.ReadAhead == 0 {
		o.ReadAhead = 8
	}
	if o.ReadAhead < 0 || o.Sim {
		o.ReadAhead = 0
	}
	if o.Prefetchers < 1 {
		o.Prefetchers = 4
	}
	return o
}

// Stats is a point-in-time snapshot of the store's counters, in extents:
// a source looks an extent up once and then serves every chunk inside it
// from the extent it pins.
type Stats struct {
	Hits        int64 // extent lookups served from cache (incl. waits on a fill in flight)
	Misses      int64 // extent lookups that owned a backing fill
	ReadOps     int64 // backing ReadAt calls: one per extent filled, demand or read-ahead
	Recycled    int64 // of ReadOps, fills into an evicted extent's buffer
	Evictions   int64 // extents reclaimed by CLOCK
	BytesCached int64 // bytes resident in filled extents
}

// Store serves named files through the extent cache.
type Store struct {
	fs  FS
	opt Options
	c   *cache

	mu   sync.Mutex
	objs map[string]*object

	sem chan struct{} // prefetch slots

	hits     atomic.Int64
	misses   atomic.Int64
	readOps  atomic.Int64
	recycled atomic.Int64
}

// object is one resolved file in the registry.
type object struct {
	name string
	f    File
	size int64

	// index is the dense lookup over the object's cached extents: cell i
	// points at the live extent for bytes [i*ExtentBytes, (i+1)*ExtentBytes),
	// nil when absent. Cells are written under the cache mutex (publish at
	// creation, clear on eviction or failed fill) and read lock-free, so
	// every source over the object — every chunk size, all stripes of a
	// striped pull, every later session — shares one warm path. 8 bytes
	// per extent: 64 KiB of index for a 1 GiB file.
	index []atomic.Pointer[extent]
}

// New creates a Store over fs.
func New(fs FS, opt Options) *Store {
	opt = opt.withDefaults()
	return &Store{
		fs:   fs,
		opt:  opt,
		c:    newCache(opt.CacheBytes, opt.Sim),
		objs: make(map[string]*object),
		sem:  make(chan struct{}, opt.Prefetchers),
	}
}

// Open creates a Store serving the files under dir (see DirFS).
func Open(dir string, opt Options) *Store { return New(NewDirFS(dir), opt) }

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		ReadOps:     s.readOps.Load(),
		Recycled:    s.recycled.Load(),
		Evictions:   s.c.evictions.Load(),
		BytesCached: s.c.bytes.Load(),
	}
}

// Close closes every open file. In-flight prefetches fail harmlessly.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.objs {
		o.f.Close()
	}
	s.objs = make(map[string]*object)
}

// resolve opens (or finds) the named object. Open files are kept for the
// store's lifetime — the registry is the file-handle cache.
func (s *Store) resolve(name string) (*object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.objs[name]; o != nil {
		return o, nil
	}
	f, err := s.fs.Open(name)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	o := &object{name: name, f: f, size: size,
		index: make([]atomic.Pointer[extent], (size+ExtentBytes-1)/ExtentBytes)}
	s.objs[name] = o
	return o, nil
}

// Stat reports the named object's size.
func (s *Store) Stat(name string) (int64, error) {
	o, err := s.resolve(name)
	if err != nil {
		return 0, err
	}
	return o.size, nil
}

// StatReq is the session.Server.Stat hook: it answers stat REQs for named
// objects.
func (s *Store) StatReq(r wire.Req) (int64, bool) {
	if r.Name == "" {
		return 0, false
	}
	o, err := s.resolve(r.Name)
	if err != nil {
		s.logf("store: stat %q: %v", r.Name, err)
		return 0, false
	}
	return o.size, true
}

// SourceReq is the session.Server.SourceEnv hook: it resolves named pull
// REQs — striped or not — into chunk sources reading through the cache.
// Anonymous REQs (no name) are not the store's business; return false so
// the daemon can fall back to another source.
func (s *Store) SourceReq(r wire.Req, env core.Env) (core.ChunkSource, bool) {
	if r.Name == "" {
		return nil, false
	}
	if r.Bytes == 0 || r.Chunk == 0 || r.Chunk > maxChunk {
		s.logf("store: rejecting degenerate pull of %q (bytes=%d chunk=%d)", r.Name, r.Bytes, r.Chunk)
		return nil, false
	}
	o, err := s.resolve(r.Name)
	if err != nil {
		s.logf("store: pull %q: %v", r.Name, err)
		return nil, false
	}
	if r.StreamBytes() > uint64(o.size) || r.Offset()+r.Bytes > uint64(o.size) {
		s.logf("store: rejecting pull of [%d,%d) beyond %d-byte %q",
			r.Offset(), r.Offset()+r.Bytes, o.size, r.Name)
		return nil, false
	}
	return s.source(o, int(r.Chunk), int(r.OffsetChunks), int64(r.Offset()+r.Bytes), env), true
}

// Source returns a chunk source for the named object, for callers outside
// the session layer (tests, benchmarks). env may be nil on real
// substrates.
func (s *Store) Source(name string, chunk, offsetChunks int, env core.Env) (core.ChunkSource, error) {
	if chunk <= 0 || chunk > maxChunk {
		return nil, fmt.Errorf("store: chunk size %d out of range", chunk)
	}
	o, err := s.resolve(name)
	if err != nil {
		return nil, err
	}
	return s.source(o, chunk, offsetChunks, o.size, env), nil
}

// source builds the per-transfer chunk source over the byte range that
// ends at end. The engine consumes the returned bytes before its next call
// (core.ChunkSource contract), so a chunk inside one extent is returned in
// place — a slice of the pinned, immutable buffer, its capacity clipped —
// and only a chunk that straddles two extents is copied into dst.
func (s *Store) source(o *object, chunk, offsetChunks int, end int64, env core.Env) core.ChunkSource {
	r := &reader{s: s, o: o, env: env, end: end}
	return func(seq int, dst []byte) []byte {
		return r.read(int64(offsetChunks+seq)*int64(chunk), chunk, dst)
	}
}

// reader is one source's cursor over an object. It holds one pin, on the
// extent it is inside (cache.go), so the ~ExtentBytes/chunk chunks that
// follow a lookup cost a bounds check and a slice: no atomics, no lock, no
// shared counter, no copy. That is what keeps a fully cached pull at
// parity with the in-memory generator. Entering the next extent pins it
// before the old pin is dropped. The chunk that ends the REQ's range is
// copied into dst and the pin dropped with it, so a finished transfer
// holds no buffer; a retransmission after that pins again through the
// index.
type reader struct {
	s   *Store
	o   *object
	env core.Env
	end int64 // file offset where the source's range ends

	cur    *extent // pinned extent the last chunk came from; nil holds no pin
	curOff int64   // its file offset
	ahead  int     // high-water extent index already dispatched to prefetch
}

// read serves up to n bytes at file offset off. A chunk is just a byte
// range — stripes' OffsetChunks are byte offsets in disguise — and may
// straddle an extent boundary or, above ExtentBytes, several.
func (r *reader) read(off int64, n int, dst []byte) []byte {
	n = int(min(int64(n), r.o.size-off))
	if n <= 0 {
		return dst[:0]
	}
	if !r.enter(off) {
		return dst[:0]
	}
	last := off+int64(n) >= r.end
	if a, b := off-r.curOff, off-r.curOff+int64(n); !last && b <= int64(len(r.cur.buf)) {
		return r.cur.buf[a:b:b]
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for done := 0; done < n; {
		pos := off + int64(done)
		if !r.enter(pos) {
			return dst[:0]
		}
		done += copy(dst[done:], r.cur.buf[pos-r.curOff:])
	}
	if last {
		r.release()
	}
	return dst
}

// enter makes r.cur the extent holding file offset pos, pinned, unless it
// already is; the old pin is dropped only once the new one is held. It
// reports false, holding no pin, when the extent cannot be read.
func (r *reader) enter(pos int64) bool {
	if e := r.cur; e != nil && pos >= r.curOff && pos < r.curOff+int64(len(e.buf)) {
		return true
	}
	i := int(pos / ExtentBytes)
	e, err := r.extent(i)
	r.release()
	if err != nil {
		r.s.logf("store: reading %q extent %d: %v", r.o.name, i, err)
		return false
	}
	r.cur, r.curOff = e, int64(i)*ExtentBytes
	return true
}

// release drops the reader's pin, if it holds one.
func (r *reader) release() {
	if r.cur != nil {
		r.s.c.unpin(r.cur)
		r.cur = nil
	}
}

// extent returns extent i of the object, filled and pinned: from the
// index when it is cached (a pointer load, a state load and the pin's
// compare-and-swap, no lock), waiting on another session's fill when one
// is in flight, reading it from the backing file otherwise. A pin that
// finds the extent gone — evicted since the load — takes the locked path.
func (r *reader) extent(i int) (*extent, error) {
	s, o := r.s, r.o
	e := o.index[i].Load()
	owner := false
	if e == nil || e.state.Load() != extentFilled || !e.pin() {
		e, owner = s.c.acquire(o, i, false)
	}
	if owner {
		s.misses.Add(1)
		if err := s.fill(e, r.env); err != nil {
			s.c.unpin(e)
			return nil, err
		}
	} else {
		s.hits.Add(1)
		if err := s.c.wait(e, r.env); err != nil {
			s.c.unpin(e)
			return nil, err
		}
		if !e.hot.Load() {
			e.hot.Store(true)
		}
	}
	// Pipelined read-ahead: keep (i, i+ReadAhead] in flight behind the
	// sender. The window slides only when the pipeline is live — a miss,
	// or the first consumption of a prefetched extent — so a warm stream
	// skips the probing outright; the high-water mark makes each slide
	// dispatch at most one new read, and only advances past extents
	// actually dispatched, so a busy prefetcher pool delays the window
	// instead of punching holes in it.
	if owner || (e.prefetched.Load() && e.prefetched.Swap(false)) {
		for j := max(i+1, r.ahead); j <= i+s.opt.ReadAhead && j < len(o.index); j++ {
			if !s.prefetch(o, j) {
				break
			}
			r.ahead = j + 1
		}
	}
	return e, nil
}

// fill reads e's bytes from the backing file — the one ReadAt per extent
// — into the recycled buffer acquire gave it, or a fresh one, and
// publishes the outcome to everyone waiting on it.
func (s *Store) fill(e *extent, env core.Env) error {
	lo := int64(e.idx) * ExtentBytes
	buf := e.buf
	if buf != nil {
		s.recycled.Add(1)
	} else {
		buf = make([]byte, min(ExtentBytes, e.obj.size-lo))
	}
	s.readOps.Add(1)
	_, err := e.obj.f.ReadAt(env, buf, lo)
	s.c.publish(e, buf, err)
	return err
}

// prefetch starts a background fill of extent i if it is absent and a
// prefetch slot is free; otherwise it does nothing — read-ahead is an
// optimisation, never a wait. It reports whether the extent is covered
// (already present or now in flight); false means no slot was free and
// the caller should retry on its next lookup.
func (s *Store) prefetch(o *object, i int) bool {
	if o.index[i].Load() != nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return false // all prefetchers busy
	}
	e, owner := s.c.acquire(o, i, true)
	if !owner {
		<-s.sem
		return true
	}
	go func() {
		defer func() { <-s.sem }()
		_ = s.fill(e, nil) // a failed read-ahead reaches whoever waits on e
	}()
	return true
}
