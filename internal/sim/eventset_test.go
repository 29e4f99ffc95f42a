package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refEvent and refHeap are the kernel's pending set as it was before the
// lane: one binary heap of event pointers ordered by (at, seq). They are the
// reference TestEventSetMatchesBinaryHeap holds the lane and the heap of
// value keys to.
type refEvent struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	idx  int
	w    *scriptWaiter // evWake, evWaitTimeout
}

type refHeap struct{ xs []*refEvent }

func (h *refHeap) len() int { return len(h.xs) }

func (h *refHeap) less(i, j int) bool {
	a, b := h.xs[i], h.xs[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h *refHeap) swap(i, j int) {
	h.xs[i], h.xs[j] = h.xs[j], h.xs[i]
	h.xs[i].idx, h.xs[j].idx = i, j
}

func (h *refHeap) push(ev *refEvent) {
	ev.idx = len(h.xs)
	h.xs = append(h.xs, ev)
	h.up(ev.idx)
}

func (h *refHeap) pop() *refEvent { return h.remove(0) }

func (h *refHeap) remove(i int) *refEvent {
	ev := h.xs[i]
	last := len(h.xs) - 1
	h.swap(i, last)
	h.xs[last] = nil
	h.xs = h.xs[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	ev.idx = -1
	return ev
}

func (h *refHeap) up(i int) {
	for parent := (i - 1) / 2; i > 0 && h.less(i, parent); i, parent = parent, (parent-1)/2 {
		h.swap(i, parent)
	}
}

func (h *refHeap) down(i int) {
	for {
		c := 2*i + 1
		if c+1 < len(h.xs) && h.less(c+1, c) {
			c++
		}
		if c >= len(h.xs) || !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// kind is what the entry fires as.
func (e entry) kind() eventKind {
	if e.ev == nil {
		return evWake
	}
	return e.ev.kind
}

// diffScript drives a kernel through a seeded mix of every way into and out
// of the pending set — schedules in the past, now and later, cancels of heap
// and lane events, sleeps, timed waits, predicate waits and broadcasts — and
// mirrors each one into a refHeap, by the rules the kernel documents, as it
// is made. The script's own ops run in kernel context (callbacks) and in
// process context.
type diffScript struct {
	t      *testing.T
	k      *Kernel
	rng    *rand.Rand
	seed   int64
	budget int

	ref       refHeap
	seq       uint64 // the schedule slots handed out
	peak      int
	cancelled int64
	popped    int64

	timers []scriptTimer
	sigs   []*scriptSignal
	cov    *scriptCoverage
}

type scriptTimer struct {
	tm  Timer
	ref *refEvent
}

type scriptSignal struct {
	sig     Signal
	ready   bool // the predicate waiters' condition
	waiters []*scriptWaiter
}

type scriptWaiter struct {
	sig     *scriptSignal
	pred    func() bool
	timeout *refEvent
}

// add mirrors one schedule slot into the reference.
func (s *diffScript) add(at time.Duration, kind eventKind, w *scriptWaiter) *refEvent {
	at = max(at, s.k.now)
	e := &refEvent{at: at, seq: s.seq, kind: kind, w: w}
	s.seq++
	s.ref.push(e)
	s.peak = max(s.peak, s.ref.len())
	return e
}

// drop mirrors a cancel: it counts only if the event was still pending.
func (s *diffScript) drop(e *refEvent) {
	if e != nil && e.idx >= 0 {
		s.ref.remove(e.idx)
		s.cancelled++
	}
}

// delay is -3..5 µs: a third of the schedules land in the past or now, and
// the rest collide often enough that heap events fall due at an instant
// whose lane is busy.
func (s *diffScript) delay() time.Duration {
	return time.Duration(s.rng.Intn(9)-3) * time.Microsecond
}

func (s *diffScript) schedule(d time.Duration) scriptTimer {
	at := s.k.now + d
	st := scriptTimer{ref: s.add(at, evFunc, nil)}
	st.tm = s.k.Schedule(at, s.callback)
	s.timers = append(s.timers, st)
	return st
}

func (s *diffScript) cancel(st scriptTimer) {
	if ev := st.tm.ev; ev.gen == st.tm.gen && ev.idx == onLane {
		s.cov.laneCancels++
	}
	s.drop(st.ref)
	st.tm.Cancel()
}

func (s *diffScript) broadcast(sg *scriptSignal) {
	for _, w := range sg.waiters {
		s.drop(w.timeout)
		s.add(s.k.now, evWake, w)
	}
	sg.waiters = sg.waiters[:0]
	sg.sig.Broadcast(s.k)
}

func (s *diffScript) signal() *scriptSignal { return s.sigs[s.rng.Intn(len(s.sigs))] }

// op is one script step, from a callback or a process.
func (s *diffScript) op() {
	if s.budget <= 0 {
		return
	}
	s.budget--
	switch s.rng.Intn(6) {
	case 0, 1:
		s.schedule(s.delay())
	case 2:
		if len(s.timers) > 0 {
			s.cancel(s.timers[s.rng.Intn(len(s.timers))])
		}
	case 3:
		// A zero-delay timer cancelled before it fires: off the lane.
		s.cancel(s.schedule(0))
	case 4:
		sg := s.signal()
		sg.ready = s.rng.Intn(2) == 0
		s.broadcast(sg)
	case 5:
		s.broadcast(s.signal())
	}
}

func (s *diffScript) callback() {
	for n := 1 + s.rng.Intn(3); n > 0; n-- {
		s.op()
	}
}

func (s *diffScript) proc(p *Proc) {
	for i := 0; i < 20; i++ {
		switch s.rng.Intn(4) {
		case 0:
			d := max(s.delay(), 0)
			s.add(s.k.now+d, evResume, nil)
			p.Sleep(d)
		case 1:
			sg := s.signal()
			w := &scriptWaiter{sig: sg}
			sg.waiters = append(sg.waiters, w)
			timeout := time.Duration(s.rng.Intn(7)-1) * time.Microsecond // -1 waits forever
			if timeout >= 0 {
				w.timeout = s.add(s.k.now+timeout, evWaitTimeout, w)
			}
			p.Wait(&sg.sig, timeout)
		case 2:
			sg := s.signal()
			pred := func() bool { return sg.ready }
			if !pred() {
				sg.waiters = append(sg.waiters, &scriptWaiter{sig: sg, pred: pred})
			}
			p.WaitCond(&sg.sig, -1, pred)
		case 3:
			s.op()
		}
	}
}

// start begins a segment at the kernel's current time: three processes,
// four signals and six callbacks.
func (s *diffScript) start() {
	s.budget = 300
	s.timers = s.timers[:0]
	s.sigs = s.sigs[:0]
	for range 4 {
		s.sigs = append(s.sigs, &scriptSignal{})
	}
	for range 3 {
		s.add(s.k.now, evResume, nil)
		s.k.Go("script", s.proc)
	}
	for range 6 {
		s.schedule(s.delay())
	}
}

// run pops up to steps entries from the kernel and the reference and
// requires them to agree on each.
func (s *diffScript) run(steps int) {
	for range steps {
		laneBusy := s.k.head < len(s.k.lane)
		if laneBusy && s.k.later.len() > 0 && s.k.later.top() == s.k.now {
			s.cov.heapFirst++
		}
		var want *refEvent
		if s.ref.len() > 0 {
			want = s.ref.pop()
		}
		got, ok := s.k.next()
		if ok != (want != nil) {
			s.t.Fatalf("seed %d pop %d: kernel has an entry %v, reference %v", s.seed, s.popped, ok, want != nil)
		}
		if !ok {
			return
		}
		if s.k.now != want.at || got.seq != want.seq || got.kind() != want.kind {
			s.t.Fatalf("seed %d pop %d: kernel popped (%v, %d, kind %d), reference (%v, %d, kind %d)",
				s.seed, s.popped, s.k.now, got.seq, got.kind(), want.at, want.seq, want.kind)
		}
		switch w := want.w; want.kind {
		case evWake:
			if w.pred != nil && !w.pred() {
				w.sig.waiters = append(w.sig.waiters, w)
			}
		case evWaitTimeout:
			for i, x := range w.sig.waiters {
				if x == w {
					w.sig.waiters = append(w.sig.waiters[:i], w.sig.waiters[i+1:]...)
					break
				}
			}
		}
		s.popped++
		s.k.stats.Events++
		s.k.fire(got)
		if s.k.seq != s.seq || s.k.pending() != s.ref.len() {
			s.t.Fatalf("seed %d pop %d: kernel at seq %d with %d pending, reference at %d with %d",
				s.seed, s.popped, s.k.seq, s.k.pending(), s.seq, s.ref.len())
		}
	}
}

// endSegment compares the segment's counts and resets both sides.
func (s *diffScript) endSegment() {
	st := s.k.Stats()
	if st.Events != s.popped || st.HeapPeak != s.peak || st.TimersCancelled != s.cancelled {
		s.t.Fatalf("seed %d: kernel stats %+v, reference %d events, peak %d, %d cancelled",
			s.seed, st, s.popped, s.peak, s.cancelled)
	}
	if s.k.later.len() > 0 && s.k.head < len(s.k.lane) {
		s.cov.busyResets++
	}
	s.k.Reset()
	s.ref, s.seq, s.peak, s.cancelled, s.popped = refHeap{}, 0, 0, 0, 0
}

// TestEventSetMatchesBinaryHeap holds the pending set (a FIFO lane for the
// current instant beside a heap of value keys) to the single pointer heap it
// replaced: on every seed, the pop sequence (at, seq, kind), the peak
// pending count and the cancelled count are the reference's. Each seed runs
// three segments; the first two are cut short by a Reset, some with events
// still pending on both the heap and the lane.
func TestEventSetMatchesBinaryHeap(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	var cov scriptCoverage
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := &diffScript{t: t, k: NewKernel(), rng: rand.New(rand.NewSource(seed)), seed: seed, cov: &cov}
		for seg := 0; seg < 3; seg++ {
			s.start()
			steps := 1 << 30
			if seg < 2 {
				steps = 10 + s.rng.Intn(300)
			}
			s.run(steps)
			s.endSegment()
		}
	}
	// The script must reach the cases the pop rule and Cancel distinguish.
	if cov.heapFirst == 0 || cov.laneCancels == 0 || cov.busyResets == 0 {
		t.Errorf("coverage %+v: every case must occur", cov)
	}
}

// scriptCoverage counts the cases the pop rule and Cancel distinguish.
type scriptCoverage struct {
	heapFirst   int // pops with a heap event due now ahead of a busy lane
	laneCancels int // events cancelled off the lane
	busyResets  int // resets with both the heap and the lane non-empty
}
