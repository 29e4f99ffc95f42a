// Package sim is a deterministic, process-based discrete-event simulator.
//
// It exists to stand in for the paper's hardware testbed (two SUN
// workstations on an idle 10 Mb/s Ethernet): simulated "processes" are
// coroutines (iter.Pull) that execute the paper's busy-wait protocol programs
// in virtual time, charging CPU time for packet copies, occupying a
// half-duplex medium for transmissions, and suffering seeded packet loss.
//
// Scheduling is strictly sequential: the kernel resumes exactly one process
// at a time with a coroutine switch — goroutine to goroutine, with no pass
// through the Go scheduler's queues — and runs again when the process blocks
// in Sleep or Wait, so a given seed always produces an identical execution.
// Events at equal times fire in schedule order.
//
// The kernel is built for cheap mass replay: an event due at the current
// instant — half of all events, mostly broadcast wake-ups — goes on a FIFO
// lane instead of the heap; event records live on a per-kernel free list and
// know their heap index, so a cancelled timer leaves the pending set at once
// and it holds only what can still fire; Sleep and Wait schedule typed events
// instead of allocating closures; a waiter's predicate is checked by the
// kernel, so a broadcast that does not concern a process costs an event, not
// a switch, and so does an interface copy it would only sleep through; and
// Reset rewinds a kernel to time zero so one kernel (with its warmed pools)
// can serve thousands of trials.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"time"
)

// Kernel is the event loop and virtual clock. Create one with NewKernel,
// spawn processes with Go, then call Run.
type Kernel struct {
	now time.Duration
	// The pending set, in (at, seq) order: later holds the events that were
	// scheduled for a time after the clock of their scheduling, lane[head:]
	// those scheduled for the clock itself, in schedule order. Every lane
	// entry is due now, and the clock does not move while one is pending.
	later   eventHeap
	lane    []entry
	head    int
	seq     uint64
	live    int // processes that have not finished
	failure error
	procs   []*Proc // started and not finished: what unwind must stop
	stats   KernelStats

	freeEvents  []*event
	freeWaiters []*svwaiter
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// KernelStats counts the scheduling work since the last Reset. The counts
// are exact: for a given seed they repeat bit for bit on any host.
type KernelStats struct {
	Events          int64 // events fired
	Switches        int64 // kernel-to-process resumes (two coroutine switches each)
	TimersCancelled int64 // events removed from the pending set before they fired
	HeapPeak        int   // the most events pending at once, heap and lane together
}

// Stats returns the counts so far.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Reset rewinds the kernel to time zero with an empty pending set so it can
// run another simulation, keeping its event and waiter pools warm. Processes
// still blocked (an abandoned run) are unwound first; then
// pending events are discarded into the pool.
func (k *Kernel) Reset() {
	k.unwind()
	for k.later.len() > 0 {
		k.recycle(k.later.pop().ev)
	}
	for k.head < len(k.lane) {
		if e := k.popLane(); e.ev != nil {
			k.recycle(e.ev)
		}
	}
	k.now, k.seq, k.live, k.failure, k.stats = 0, 0, 0, nil, KernelStats{}
}

// pending is the number of events that can still fire.
func (k *Kernel) pending() int { return k.later.len() + len(k.lane) - k.head }

// unwind stops every process that has started and not finished: each is
// resumed once with a false yield, panics errUnwound out of its Sleep or Wait,
// runs its deferred calls and takes itself off k.procs. No event fires.
func (k *Kernel) unwind() {
	for len(k.procs) > 0 {
		k.procs[len(k.procs)-1].stop()
	}
}

var errUnwound = errors.New("sim: process unwound by its kernel")

// eventKind discriminates the typed events the kernel dispatches without a
// closure allocation. evFunc remains the general case for cold paths.
type eventKind uint8

const (
	// evFunc runs an arbitrary callback.
	evFunc eventKind = iota
	// evResume hands control to a spawned or sleeping process.
	evResume
	// evWaitTimeout expires a Signal wait.
	evWaitTimeout
	// evTxDone marks a FIFO-medium transmission leaving the wire.
	evTxDone
	// evDeliver delivers a transmitted packet after propagation.
	evDeliver
	// evCopied ends a synchronous send's copy into the interface.
	evCopied
)

// event is a scheduled occurrence. Events are pooled: gen increments on
// every recycle so stale Timer handles cannot cancel an unrelated reuse.
type event struct {
	k    *Kernel // owner, so a Timer can pull the event out of its pending set
	idx  int     // position in the heap, onLane, or notPending
	gen  uint32
	kind eventKind

	fire   func()    // evFunc
	proc   *Proc     // evResume
	waiter *svwaiter // evWaitTimeout
	job    *txJob    // evTxDone, evDeliver, evCopied
}

// Where an event is when it is not in the heap.
const (
	notPending = -1 // popped, removed or free
	onLane     = -2
)

// entry is one pending occurrence on the lane or popped from the pending set:
// an event record, or (ev nil) a broadcast's wake-up of w, carried by value.
type entry struct {
	seq uint64
	ev  *event
	w   *svwaiter
}

// Timer is a handle for a scheduled event that may be cancelled. The zero
// Timer is valid and cancels nothing.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing by removing it from the pending set
// and recycling it. Safe to call multiple times, while or after the event
// fires, and on the zero Timer.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.idx == notPending {
		return
	}
	k := ev.k
	if ev.idx == onLane {
		k.removeFromLane(ev)
	} else {
		k.later.remove(ev.idx)
	}
	k.stats.TimersCancelled++
	k.recycle(ev)
}

// newEvent takes an event record from the pool (or allocates one), stamps it
// with the next schedule slot and adds it to the pending set: on the lane if
// it is due now (at is clamped to now), else on the heap.
func (k *Kernel) newEvent(at time.Duration, kind eventKind) *event {
	var ev *event
	if n := len(k.freeEvents); n > 0 {
		ev = k.freeEvents[n-1]
		k.freeEvents = k.freeEvents[:n-1]
	} else {
		ev = &event{k: k}
	}
	ev.kind = kind
	if at <= k.now {
		ev.idx = onLane
		k.lane = append(k.lane, entry{seq: k.seq, ev: ev})
	} else {
		k.later.push(heapKey{at: at, seq: k.seq, ev: ev})
	}
	k.seq++
	k.notePeak()
	return ev
}

// notePeak records the pending set's size after an addition.
func (k *Kernel) notePeak() {
	if n := k.pending(); n > k.stats.HeapPeak {
		k.stats.HeapPeak = n
	}
}

// popLane takes the lane's head entry. An emptied lane restarts at the front
// of its array, so it stays as short as the longest burst at one instant.
func (k *Kernel) popLane() entry {
	e := k.lane[k.head]
	k.lane[k.head] = entry{}
	if k.head++; k.head == len(k.lane) {
		k.lane, k.head = k.lane[:0], 0
	}
	if e.ev != nil {
		e.ev.idx = notPending
	}
	return e
}

// removeFromLane takes a cancelled event off the lane. Only a zero-delay
// timer or wait timeout cancelled within its own instant gets here, so the
// scan is rare.
func (k *Kernel) removeFromLane(ev *event) {
	for i := k.head; i < len(k.lane); i++ {
		if k.lane[i].ev == ev {
			last := len(k.lane) - 1
			copy(k.lane[i:], k.lane[i+1:])
			k.lane[last] = entry{}
			k.lane = k.lane[:last]
			break
		}
	}
	if k.head == len(k.lane) {
		k.lane, k.head = k.lane[:0], 0
	}
	ev.idx = notPending
}

// next takes the first pending entry in (at, seq) order and moves the clock
// to it; false means nothing is pending. A heap event due now goes first:
// it was scheduled before the clock reached now, so its seq is below every
// lane entry's. Otherwise the lane, whose entries are all due now, comes
// before any later heap event.
func (k *Kernel) next() (entry, bool) {
	if k.later.len() > 0 && (k.later.top() == k.now || k.head == len(k.lane)) {
		key := k.later.pop()
		k.now = key.at
		return entry{seq: key.seq, ev: key.ev}, true
	}
	if k.head < len(k.lane) {
		return k.popLane(), true
	}
	return entry{}, false
}

// recycle clears a fired or discarded event and returns it to the pool,
// invalidating outstanding Timer handles via the generation counter.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fire = nil
	ev.proc = nil
	ev.waiter = nil
	ev.job = nil
	k.freeEvents = append(k.freeEvents, ev)
}

// fire runs one popped entry in kernel context and recycles its event.
func (k *Kernel) fire(e entry) {
	if e.ev == nil {
		k.wake(e.w)
		return
	}
	k.dispatch(e.ev)
	k.recycle(e.ev)
}

// wake delivers a broadcast to one waiter.
func (k *Kernel) wake(w *svwaiter) {
	if w.pred != nil && !w.pred() {
		// Where the process's own re-check and re-Wait would have put it.
		w.sig.waiters = append(w.sig.waiters, w)
	} else if d := w.sleep(); d >= 0 {
		k.newEvent(k.now+d, evResume).proc = w.p
	} else {
		k.resume(w.p, false)
	}
}

// dispatch fires one event record in kernel context.
func (k *Kernel) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fire()
	case evResume:
		k.resume(ev.proc, false)
	case evWaitTimeout:
		ev.waiter.sig.remove(ev.waiter)
		k.resume(ev.waiter.p, true)
	case evTxDone:
		ev.job.from.net.txDone(ev.job)
	case evDeliver:
		job := ev.job
		n := job.from.net
		if job.to == nil {
			n.deliverBroadcast(job.from, job.pkt)
		} else {
			n.deliver(job.from, job.to, job.pkt)
		}
		n.putJob(job)
	case evCopied:
		ev.job.from.copied(ev.job)
	}
}

// Schedule registers fire to run at absolute virtual time at (clamped to
// now). It may be called from process context or from event callbacks.
func (k *Kernel) Schedule(at time.Duration, fire func()) Timer {
	ev := k.newEvent(at, evFunc)
	ev.fire = fire
	return Timer{ev: ev, gen: ev.gen}
}

// After registers fire to run d from now.
func (k *Kernel) After(d time.Duration, fire func()) Timer {
	return k.Schedule(k.now+d, fire)
}

// Run drives the simulation until no events remain, then reports an error
// if processes are still blocked (deadlock) or a process panicked. The
// kernel cannot resume after an error, so the processes still blocked are
// unwound.
func (k *Kernel) Run() error {
	for k.step() {
	}
	if k.failure == nil && k.live > 0 {
		k.fail(fmt.Errorf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", k.live, k.now))
	}
	if k.failure != nil {
		k.unwind()
	}
	return k.failure
}

// Step processes the next pending event. It reports whether an event was
// processed (false means nothing is pending or a failure was already
// recorded) and any recorded failure, unwinding like Run on one. Callers use
// it to drive simulations containing unbounded background activity — load
// generators never let the pending set drain, so Run would never return.
func (k *Kernel) Step() (bool, error) {
	more := k.step()
	if k.failure != nil {
		k.unwind()
	}
	return more, k.failure
}

// step is the one event loop: fire the earliest event, unless nothing is
// pending or the run has failed.
func (k *Kernel) step() bool {
	if k.failure != nil {
		return false
	}
	e, ok := k.next()
	if !ok {
		return false
	}
	k.stats.Events++
	k.fire(e)
	return true
}

// fail records a fatal simulation error; Run returns it after the current
// event completes.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}

// Proc is a simulated process. All Proc methods must be called from the
// process's own coroutine (i.e. inside the function passed to Go).
type Proc struct {
	k        *Kernel
	name     string
	timedOut bool // whether the resume in progress is a wait's timeout
	idx      int  // position in k.procs
	fn       func(*Proc)

	// The coroutine, created at the first resume: next switches in, yield out.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Go spawns a process that begins executing at the current virtual time.
func (k *Kernel) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	k.live++
	k.newEvent(k.now, evResume).proc = p
	return p
}

// resume switches to p, in kernel context, until it blocks again or finishes.
func (k *Kernel) resume(p *Proc, timedOut bool) {
	if p.next == nil {
		p.idx = len(k.procs)
		k.procs = append(k.procs, p)
		p.next, p.stop = iter.Pull(p.run)
	}
	p.timedOut = timedOut
	k.stats.Switches++
	p.next()
}

// run is the body of p's coroutine.
func (p *Proc) run(yield func(struct{}) bool) {
	k := p.k
	p.yield = yield
	defer func() {
		if r := recover(); r != nil && r != errUnwound {
			k.fail(fmt.Errorf("sim: process %q panicked: %v", p.name, r))
		}
		k.live--
		moved := k.procs[len(k.procs)-1]
		k.procs[p.idx], moved.idx = moved, p.idx
		k.procs = k.procs[:len(k.procs)-1]
	}()
	p.fn(p)
}

// block returns control to the kernel — the one way a process blocks — and
// reports, once resumed, whether a wait timed out. A false yield is an unwind.
func (p *Proc) block() bool {
	if !p.yield(struct{}{}) {
		panic(errUnwound)
	}
	return p.timedOut
}

// Sleep advances the process by d of busy virtual time (modelling CPU work
// or waiting); other processes run meanwhile. The resume is a pooled typed
// event: sleeping allocates nothing in steady state.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.newEvent(p.k.now+d, evResume).proc = p
	p.block()
}

// Signal is a broadcast condition variable in virtual time. The zero value
// is ready to use. It must only be touched from kernel or process context
// of a single kernel.
type Signal struct {
	waiters []*svwaiter
}

// svwaiter is one blocked Wait, on sig.waiters unless a wake-up is in flight.
type svwaiter struct {
	p    *Proc
	sig  *Signal
	pred func() bool // nil: any broadcast resumes p
	// then, when non-nil, runs when a wake-up would resume p: a result d >= 0
	// is a Sleep p would begin on resuming, which the kernel begins instead,
	// so p is switched to once, at its end.
	then  func() time.Duration
	timer Timer
}

// sleep is the Sleep the waiter's then hook asks for, or -1.
func (w *svwaiter) sleep() time.Duration {
	if w.then == nil {
		return -1
	}
	return w.then()
}

// getWaiter takes a waiter record from the pool.
func (k *Kernel) getWaiter() *svwaiter {
	if n := len(k.freeWaiters); n > 0 {
		w := k.freeWaiters[n-1]
		k.freeWaiters = k.freeWaiters[:n-1]
		return w
	}
	return &svwaiter{}
}

// putWaiter clears a finished waiter and returns it to the pool: its timeout
// has fired or been cancelled, so no event references it.
func (k *Kernel) putWaiter(w *svwaiter) {
	*w = svwaiter{}
	k.freeWaiters = append(k.freeWaiters, w)
}

// Wait blocks the process until the signal is broadcast or timeout elapses
// (timeout < 0 waits forever). It reports whether the wait timed out.
func (p *Proc) Wait(s *Signal, timeout time.Duration) (timedOut bool) {
	return p.wait(s, timeout, nil, nil)
}

func (p *Proc) wait(s *Signal, timeout time.Duration, pred func() bool, then func() time.Duration) (timedOut bool) {
	k := p.k
	w := k.getWaiter()
	w.p, w.sig, w.pred, w.then = p, s, pred, then
	s.waiters = append(s.waiters, w)
	if timeout >= 0 {
		ev := k.newEvent(k.now+timeout, evWaitTimeout)
		ev.waiter = w
		w.timer = Timer{ev: ev, gen: ev.gen}
	}
	timedOut = p.block()
	k.putWaiter(w)
	return timedOut
}

// WaitCond blocks until cond() holds, rechecking on every broadcast of s.
// deadline is an absolute virtual time; negative means no deadline. It
// reports whether cond() held when it returned (false means the deadline
// passed first).
//
// cond is a predicate: it must have no side effects and read only state
// mutated in kernel or process context of this kernel. Without a deadline
// the kernel itself evaluates it — when a broadcast's wake-up event fires,
// not at Broadcast — and a false result puts the waiter back on s without
// switching to the process at all. (A deadline wait re-arms a timeout per
// re-check, which consumes a schedule slot, so it stays a process-side loop.)
func (p *Proc) WaitCond(s *Signal, deadline time.Duration, cond func() bool) bool {
	if deadline < 0 {
		if !cond() {
			p.wait(s, -1, cond, nil)
		}
		return true
	}
	for !cond() {
		timeout := deadline - p.k.now
		if timeout < 0 {
			return false
		}
		if p.Wait(s, timeout) {
			return cond()
		}
	}
	return true
}

// Broadcast wakes every current waiter. New waiters arriving after the call
// are unaffected. Wakeups are scheduled at the current time in FIFO order;
// each takes a schedule slot and counts as an event, but needs no record.
func (s *Signal) Broadcast(k *Kernel) {
	for _, w := range s.waiters {
		w.timer.Cancel()
		k.lane = append(k.lane, entry{seq: k.seq, w: w})
		k.seq++
		k.notePeak()
	}
	s.waiters = s.waiters[:0]
}

func (s *Signal) remove(w *svwaiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// heapKey is one heap slot: the ordering key by value beside the event, so
// a comparison never loads through the event pointer.
type heapKey struct {
	at  time.Duration
	seq uint64
	ev  *event
}

func (a heapKey) before(b heapKey) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (at, seq) — a total order, so
// the pop sequence does not depend on the heap's shape. Every event knows
// its index, which is what lets remove take one out of the middle. Sifts
// move a hole and write each displaced key once.
type eventHeap struct{ xs []heapKey }

func (h *eventHeap) len() int { return len(h.xs) }

// top is the earliest pending time; the heap must not be empty.
func (h *eventHeap) top() time.Duration { return h.xs[0].at }

func (h *eventHeap) push(key heapKey) {
	h.xs = append(h.xs, key)
	h.up(len(h.xs)-1, key)
}

func (h *eventHeap) pop() heapKey { return h.remove(0) }

// remove takes the key at index i out of the heap.
func (h *eventHeap) remove(i int) heapKey {
	key := h.xs[i]
	last := len(h.xs) - 1
	moved := h.xs[last]
	h.xs[last] = heapKey{}
	h.xs = h.xs[:last]
	if i < last {
		if i > 0 && moved.before(h.xs[(i-1)/2]) {
			h.up(i, moved)
		} else {
			h.down(i, moved)
		}
	}
	key.ev.idx = notPending
	return key
}

// up places key, bound for the hole at i, at or above i.
func (h *eventHeap) up(i int, key heapKey) {
	for i > 0 {
		parent := (i - 1) / 2
		if !key.before(h.xs[parent]) {
			break
		}
		h.xs[i] = h.xs[parent]
		h.xs[i].ev.idx = i
		i = parent
	}
	h.xs[i] = key
	key.ev.idx = i
}

// down places key, bound for the hole at i, at or below i.
func (h *eventHeap) down(i int, key heapKey) {
	n := len(h.xs)
	for {
		c := 2*i + 1 // the earlier child
		if c >= n {
			break
		}
		if c+1 < n && h.xs[c+1].before(h.xs[c]) {
			c++
		}
		if !h.xs[c].before(key) {
			break
		}
		h.xs[i] = h.xs[c]
		h.xs[i].ev.idx = i
		i = c
	}
	h.xs[i] = key
	key.ev.idx = i
}
