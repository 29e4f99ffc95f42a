package store

import (
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
)

// The hot-object cache: extent-grained, CLOCK-evicted, with pinned,
// recycled buffers and single-flight fills.
//
// The unit of caching, reading and eviction is a fixed-size file extent,
// keyed (object, extent index) and independent of any client's chunk size:
// every puller of a file — at any -chunk/-mtu, striped or not — shares the
// same extents. The key lives in the object itself: object.index[i] is the
// dense, lock-free lookup cell for extent i, so the cache needs no map.
//
// A miss publishes a pending extent before reading, so N sessions racing
// for the same cold extent trigger exactly one backing read: the first
// owns the fill, the rest wait on it (a closed channel on real substrates,
// virtual-time polling on the DES, where blocking on a channel would stall
// the kernel's handoff scheduling).
//
// A reader pins the one extent it is inside (extent.ref), so it pays one
// atomic per extent it enters and none per chunk. Eviction never waits on a
// pin: it marks the extent gone and unlinks it, and a pin taken after that
// fails, sending the reader back to the index. The buffer goes to the free
// list exactly once — at eviction when nobody holds a pin, else at the last
// unpin — and the next fill of a full-size extent takes it from there, so
// a cache that evicts makes no garbage. A pin that is never dropped (an
// abandoned session's) only leaves its buffer to the GC.

// ExtentBytes is the cache grain: one backing read, one ring slot and one
// index cell per this many file bytes. Chosen by BenchmarkColdSource
// (median of 8, 1000-byte chunks: 64 KiB 0.36, 128 KiB 0.31, 256 KiB
// 0.28 ns/B): 128 KiB is the knee — doubling again buys 11% on the cold
// path and doubles the slot a short file wastes.
const ExtentBytes = 128 << 10

// simWaitQuantum is how much virtual time a DES session sleeps between
// polls of an extent another session is reading off the simulated disk.
const simWaitQuantum = 200 * time.Microsecond

// extent lifecycle states, published through extent.state so lock-free
// readers can tell a filled buffer from one still in flight.
const (
	extentPending uint32 = iota // fill in flight; owned by the lookup that missed
	extentFilled                // buf valid and immutable
	extentFailed                // the read failed; err set, unlinked from the index
)

// gone is extent.ref's top bit: the extent was evicted, or its fill failed,
// and is unlinked from its index cell. The bits below it count pins.
const gone = 1 << 31

// extent is one cached piece of a file. buf and err are written by the
// filling owner and published with a release store of state, so any reader
// that sees a non-pending state may read them without a lock. obj/idx are
// immutable; slot is guarded by the cache mutex.
type extent struct {
	obj   *object
	idx   int
	slot  int // position in cache.ring
	buf   []byte
	err   error
	state atomic.Uint32
	ref   atomic.Uint32 // pins, plus gone once unlinked
	hot   atomic.Bool   // CLOCK reference bit
	// prefetched marks an extent created by background read-ahead and not
	// yet consumed by a reader. The first lookup consumes it (Swap) — the
	// signal that the pipeline is live and the read-ahead window should
	// slide; lookups of warm extents leave the window alone, so fully
	// cached streams pay no read-ahead tax.
	prefetched atomic.Bool
	ready      chan struct{}
}

// pin takes a pin on e unless e is gone. Once gone is set no pin succeeds,
// so the pin count only falls and exactly one release reaches zero.
func (e *extent) pin() bool {
	for {
		v := e.ref.Load()
		if v&gone != 0 {
			return false
		}
		if e.ref.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// cache is the CLOCK ring: a fixed number of slots (budget/ExtentBytes),
// each nil or holding one extent. One mutex, unsharded: it is taken once
// per extent miss and never on a hit, and BenchmarkEvictSourceParallel at
// -cpu 2 measures 207 ns/chunk with it against 217 with a mutex per CPU.
type cache struct {
	sim bool

	mu   sync.Mutex
	ring []*extent
	hand int
	free [][]byte // full-size buffers of released extents, for the next fills

	bytes     atomic.Int64
	evictions atomic.Int64
}

func newCache(budget int64, sim bool) *cache {
	slots := int(budget / ExtentBytes)
	if slots < 1 {
		slots = 1 // the grain is the floor: a cache holds at least one extent
	}
	return &cache{sim: sim, ring: make([]*extent, slots)}
}

// acquire returns the live extent for cell i of o, creating a pending one
// on a miss, with a full-size buffer from the free list when one is there.
// A demand lookup (prefetch false) returns e pinned. The caller that
// misses (owner true) must call publish exactly once; everyone else waits.
func (c *cache) acquire(o *object, i int, prefetch bool) (e *extent, owner bool) {
	cell := &o.index[i]
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = cell.Load(); e != nil {
		if !prefetch {
			e.pin() // cannot fail: unlinking takes c.mu
		}
		return e, false
	}
	e = &extent{obj: o, idx: i, ready: make(chan struct{})}
	e.prefetched.Store(prefetch)
	if !prefetch {
		e.ref.Store(1)
	}
	c.place(e)
	if n := len(c.free); n > 0 && o.size-int64(i)*ExtentBytes >= ExtentBytes {
		e.buf, c.free = c.free[n-1], c.free[:n-1]
	}
	cell.Store(e)
	return e, true
}

// place runs the CLOCK hand to a slot for e: free slots are taken as
// found, a hot extent loses its reference bit and survives one sweep, a
// pending extent is skipped outright, and the first cold filled extent is
// evicted with its slot reused in place — O(1), nothing moves. Only when
// every slot is mid-fill does the ring grow by one: running over budget
// beats evicting a read in flight. Caller holds c.mu.
func (c *cache) place(e *extent) {
	for scanned := 2 * len(c.ring); scanned > 0; scanned-- {
		i := c.hand
		if c.hand++; c.hand == len(c.ring) {
			c.hand = 0
		}
		if v := c.ring[i]; v != nil {
			if v.state.Load() == extentPending {
				continue
			}
			if v.hot.Load() {
				v.hot.Store(false)
				continue
			}
			v.obj.index[v.idx].Store(nil)
			c.bytes.Add(-int64(len(v.buf)))
			c.evictions.Add(1)
			c.retire(v)
		}
		c.ring[i], e.slot = e, i
		return
	}
	e.slot = len(c.ring)
	c.ring = append(c.ring, e)
}

// publish completes e's fill. A failed extent is unlinked, retired and its
// slot freed, so the next request retries the read instead of caching the
// error. The state store is the release barrier that publishes buf/err.
func (c *cache) publish(e *extent, buf []byte, err error) {
	e.buf = buf
	if err != nil {
		e.err = err
		c.mu.Lock()
		e.obj.index[e.idx].Store(nil)
		c.ring[e.slot] = nil
		c.retire(e)
		c.mu.Unlock()
		e.state.Store(extentFailed)
	} else {
		c.bytes.Add(int64(len(buf)))
		e.state.Store(extentFilled)
	}
	close(e.ready)
}

// retire marks e gone, already unlinked from its cell, and frees its buffer
// unless a pin holds it; the last unpin frees it then. Caller holds c.mu.
func (c *cache) retire(e *extent) {
	if e.ref.Add(gone) == gone {
		c.recycle(e.buf)
	}
}

// unpin drops a pin taken by pin or acquire, freeing the buffer of a gone
// extent whose last pin this was.
func (c *cache) unpin(e *extent) {
	if e.ref.Add(^uint32(0)) == gone {
		c.mu.Lock()
		c.recycle(e.buf)
		c.mu.Unlock()
	}
}

// recycle puts a full-size buffer on the free list; a short tail extent's
// is left to the GC. Caller holds c.mu. The list never makes the store hold
// more: a fill allocates only while the list is empty.
func (c *cache) recycle(buf []byte) {
	if len(buf) == ExtentBytes {
		c.free = append(c.free, buf)
	}
}

// wait blocks until e's fill completes and reports its outcome. On the
// DES it polls in virtual time instead of blocking the kernel.
func (c *cache) wait(e *extent, env core.Env) error {
	if c.sim {
		for e.state.Load() == extentPending {
			env.Compute(simWaitQuantum)
		}
	} else {
		<-e.ready
	}
	return e.err
}
