package sim

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// The scheduling machinery's edges: wait predicates checked in the kernel,
// an event heap that holds only live timers, Timer handles across removal
// and recycling, one event loop under Run and Step, and processes that do
// not outlive their kernel.

// sendAsyncProcessSide is Station.SendAsync as it was before predicates
// moved into the kernel: the waiter re-checks the buffer count itself, so
// every txDone switches to every waiting sender. It is the reference the
// kernel-side form must match event for event.
func sendAsyncProcessSide(p *Proc, s, to *Station, pkt *wire.Packet) {
	for s.txFree <= 0 {
		p.Wait(&s.txSig, -1)
	}
	s.txFree--
	p.Sleep(s.net.Cost.CopyTime(pkt.WireSize()))
	s.Counters.TxPackets++
	s.Counters.TxBytes += int64(pkt.WireSize())
	s.net.enqueueTx(s.net.getJob(s, to, s.net.copyPkt(pkt)))
}

// sendProcessSide is Station.Send as it was before the copy's end moved into
// the kernel: the sender sleeps through its copy into the interface, enqueues
// the frame itself, then waits for it to leave the wire — two switches per
// send into a free buffer.
func sendProcessSide(p *Proc, s, to *Station, pkt *wire.Packet) {
	p.WaitCond(&s.txSig, -1, s.txReady)
	s.txFree--
	start := p.Now()
	p.Sleep(s.net.Cost.CopyTime(pkt.WireSize()))
	s.net.span(s.Name, LaneCPU, "in:"+typeLabel(pkt), start, p.Now())
	s.Counters.TxPackets++
	s.Counters.TxBytes += int64(pkt.WireSize())
	job := s.net.getJob(s, to, s.net.copyPkt(pkt))
	s.net.enqueueTx(job)
	for !job.done {
		p.Wait(&job.sig, -1)
	}
}

// recvProcessSide is Station.Recv as it was before a waiting receiver's
// wake-up began its copy: the receiver is switched to once to find the
// packet, and again when the copy it then sleeps through ends.
func recvProcessSide(p *Proc, s *Station, timeout time.Duration) (*wire.Packet, error) {
	k := s.net.K
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = k.Now() + timeout
	}
	for len(s.rxq) == 0 {
		if s.closed {
			return nil, net.ErrClosed
		}
		wait := time.Duration(-1)
		if deadline >= 0 {
			wait = deadline - k.Now()
			if wait < 0 {
				return nil, os.ErrDeadlineExceeded
			}
		}
		if p.Wait(&s.rxSig, wait) && len(s.rxq) == 0 {
			if s.closed {
				return nil, net.ErrClosed
			}
			return nil, os.ErrDeadlineExceeded
		}
	}
	it := s.rxq[0]
	start := k.Now()
	p.Sleep(s.net.Cost.CopyTime(it.pkt.WireSize()))
	s.net.span(s.Name, LaneCPU, "out:"+typeLabel(&it.pkt.Packet), start, k.Now())
	s.rxq = append(s.rxq[:0], s.rxq[1:]...)
	s.Counters.RxPackets++
	s.Counters.RxBytes += int64(it.pkt.WireSize())
	return &it.pkt.Packet, nil
}

func TestSyncSendSwitchesOnce(t *testing.T) {
	const sends = 50
	for _, kernelSide := range []bool{true, false} {
		k, _, src, dst := newTestNet(t, params.Standalone3Com(), params.NoLoss(), 1)
		dst.SetSink()
		k.Go("sender", func(p *Proc) {
			for i := 0; i < sends; i++ {
				if kernelSide {
					src.Send(p, dst, dataPkt(uint32(i)))
				} else {
					sendProcessSide(p, src, dst, dataPkt(uint32(i)))
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// The spawn, then per send one switch — two for the reference.
		want := int64(1 + sends)
		if !kernelSide {
			want = 1 + 2*sends
		}
		if st := k.Stats(); st.Switches != want {
			t.Errorf("kernel-side %v: %d switches for %d sends into a free buffer, want %d", kernelSide, st.Switches, sends, want)
		}
	}
}

func TestWaitingRecvSwitchesOnce(t *testing.T) {
	const arrivals = 50
	for _, kernelSide := range []bool{true, false} {
		k, n, src, dst := newTestNet(t, params.Standalone3Com(), params.NoLoss(), 1)
		// Arrivals land from kernel context, far enough apart that the
		// receiver has always finished its copy and is waiting again.
		for i := 0; i < arrivals; i++ {
			k.Schedule(time.Duration(i+1)*time.Millisecond*10, func() {
				n.deliverNow(src, dst, n.copyPkt(dataPkt(uint32(i))))
			})
		}
		got := 0
		k.Go("receiver", func(p *Proc) {
			for i := 0; i < arrivals; i++ {
				var err error
				if kernelSide {
					_, err = dst.Recv(p, -1)
				} else {
					_, err = recvProcessSide(p, dst, -1)
				}
				if err != nil {
					t.Error(err)
					return
				}
				got++
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := int64(1 + arrivals)
		if !kernelSide {
			want = 1 + 2*arrivals
		}
		if st := k.Stats(); got != arrivals || st.Switches != want {
			t.Errorf("kernel-side %v: %d switches for %d waiting receives, want %d", kernelSide, st.Switches, got, want)
		}
	}
}

// exchange runs pingPong's lossy stop-and-wait exchange with the copies in the
// kernel or in the processes (the references above), one event per Step, and
// returns the schedule's fingerprint after every event — clock, events
// scheduled so far, heap depth — the receipts both sides logged, and the
// kernel's counts. The sender's acks time out under the loss, and the
// receiver's last Recv is woken by Close.
func exchange(t *testing.T, kernelSide bool) (schedule, receipts []string, st KernelStats) {
	t.Helper()
	k := NewKernel()
	n, err := NewNetwork(k, params.Standalone3Com(), params.LossModel{PNet: 0.2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	n.Trace = func(sp Span) { receipts = append(receipts, fmt.Sprint(sp)) }
	src, dst := n.AddStation("src"), n.AddStation("dst")
	send := func(p *Proc, s, to *Station, pkt *wire.Packet) { s.Send(p, to, pkt) }
	recv := func(p *Proc, s *Station, timeout time.Duration) (*wire.Packet, error) { return s.Recv(p, timeout) }
	if !kernelSide {
		send, recv = sendProcessSide, recvProcessSide
	}
	k.Go("sender", func(p *Proc) {
		for seq := uint32(0); seq < 20; seq++ {
			for {
				send(p, src, dst, dataPkt(seq))
				_, err := recv(p, src, 20*time.Millisecond)
				receipts = append(receipts, fmt.Sprint("sender ", err, " ", p.Now()))
				if err == nil {
					break
				}
			}
		}
		dst.Close()
	})
	k.Go("receiver", func(p *Proc) {
		for {
			_, err := recv(p, dst, -1)
			receipts = append(receipts, fmt.Sprint("receiver ", err, " ", p.Now()))
			if err != nil {
				return
			}
			send(p, dst, src, ackPkt())
		}
	})
	for {
		more, err := k.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		schedule = append(schedule, fmt.Sprint(k.now, " ", k.seq, " ", k.pending()))
	}
	if n := k.pending(); n != 0 || k.later.len() != 0 || len(k.lane) != 0 {
		t.Errorf("%d events pending (heap %d, lane %d) after the last step", n, k.later.len(), len(k.lane))
	}
	return schedule, receipts, k.Stats()
}

func TestKernelCopiesMatchProcessSide(t *testing.T) {
	sched, receipts, st := exchange(t, true)
	refSched, refReceipts, refSt := exchange(t, false)
	if !reflect.DeepEqual(sched, refSched) {
		t.Errorf("event schedules diverge: %d events vs the reference's %d", len(sched), len(refSched))
	}
	if !reflect.DeepEqual(receipts, refReceipts) {
		t.Errorf("receipts and spans diverge from the reference")
	}
	timeouts, closed := 0, 0
	for _, r := range receipts {
		timeouts += strings.Count(r, os.ErrDeadlineExceeded.Error())
		closed += strings.Count(r, net.ErrClosed.Error())
	}
	if timeouts == 0 || closed != 1 {
		t.Errorf("%d timed-out and %d closed receives: the exchange must take both wake paths", timeouts, closed)
	}
	if st.Events != refSt.Events || st.HeapPeak != refSt.HeapPeak || st.TimersCancelled != refSt.TimersCancelled {
		t.Errorf("stats %+v, reference %+v", st, refSt)
	}
	if st.Switches >= refSt.Switches {
		t.Errorf("%d switches, reference %d: the kernel-side copies must save some", st.Switches, refSt.Switches)
	}
}

// contend has eight processes push `each` frames apiece through one station
// with a single transmit buffer and returns the order in which they got it
// (a sender returns from SendAsync holding the buffer, and nobody else can
// until its frame has left the wire), the kernel's counts and the end time.
// ninth, when "barge" or "queue", spawns one more sender at the instant of
// the twentieth txDone: "barge" schedules its first resume ahead of that
// txDone's wake-ups, so it finds the buffer free; "queue" behind them, so it
// finds the buffer taken and goes to the back.
func contend(t *testing.T, kernelSide bool, each int, ninth string) ([]int, KernelStats, time.Duration) {
	t.Helper()
	k, n, src, dst := newTestNet(t, params.ModernGigabit(), params.NoLoss(), 1)
	dst.SetSink()
	var order []int
	sender := func(id int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < each; i++ {
				if kernelSide {
					src.SendAsync(p, dst, dataPkt(uint32(i)))
				} else {
					sendAsyncProcessSide(p, src, dst, dataPkt(uint32(i)))
				}
				order = append(order, id)
			}
		}
	}
	for id := 0; id < 8; id++ {
		k.Go(fmt.Sprint("sender", id), sender(id))
	}
	frames := 0
	n.Trace = func(sp Span) {
		if sp.Lane != LaneWire {
			return
		}
		if frames++; frames != 20 {
			return
		}
		switch ninth {
		case "barge":
			k.Go("sender8", sender(8))
		case "queue":
			k.Schedule(k.Now(), func() { k.Go("sender8", sender(8)) })
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return order, k.Stats(), k.Now()
}

func TestTxBufferContentionSwitchesOncePerAcquisition(t *testing.T) {
	const each = 125 // 8 x 125 = 1000 sends
	order, st, end := contend(t, true, each, "")
	if len(order) != 8*each {
		t.Fatalf("%d acquisitions, want %d", len(order), 8*each)
	}
	for i, id := range order {
		if id != i%8 {
			t.Fatalf("acquisition %d went to sender %d: not FIFO (%v...)", i, id, order[:min(i+1, 24)])
		}
	}
	// Every send is one switch for the copy's Sleep; every send but the very
	// first had to wait for the buffer, and that is exactly one more switch —
	// the other seven waiters of each txDone cost an event apiece and no
	// switch. Plus the eight spawns.
	if want := int64(8 + 8*each + (8*each - 1)); st.Switches != want {
		t.Errorf("switches = %d, want %d (a wake-up that finds no buffer must not reach its process)", st.Switches, want)
	}
	if st.HeapPeak > 16 {
		t.Errorf("heap peak %d with eight senders and one frame in flight", st.HeapPeak)
	}

	ref, refSt, refEnd := contend(t, false, each, "")
	if !reflect.DeepEqual(order, ref) || end != refEnd || st.Events != refSt.Events {
		t.Errorf("kernel-side predicate diverges from the process-side loop: end %v vs %v, events %d vs %d", end, refEnd, st.Events, refSt.Events)
	}
	if refSt.Switches <= st.Switches {
		t.Errorf("reference switched %d times, kernel-side %d: the herd should cost the reference more", refSt.Switches, st.Switches)
	}
}

func TestTxBufferArrivalAtTxDoneInstant(t *testing.T) {
	const each = 20
	for _, mode := range []string{"barge", "queue"} {
		order, st, end := contend(t, true, each, mode)
		ref, refSt, refEnd := contend(t, false, each, mode)
		if !reflect.DeepEqual(order, ref) || end != refEnd || st.Events != refSt.Events {
			t.Errorf("%s: kernel-side predicate diverges from the process-side loop:\n got %v\nwant %v", mode, order, ref)
		}
		// Frames leave the wire in acquisition order, so the twentieth txDone
		// frees the buffer for acquisition 20 (0-based).
		first := -1
		for i, id := range order {
			if id == 8 {
				first = i
				break
			}
		}
		// Barging, the ninth takes the buffer that txDone freed. Queued, it
		// arrives after sender 4 has taken it and the other seven are back on
		// the signal, and waits for all seven.
		want := map[string]int{"barge": 20, "queue": 28}[mode]
		if first != want {
			t.Errorf("%s: ninth sender first acquired at %d, want %d: %v", mode, first, want, order[:40])
		}
		// From then on service is FIFO over nine: the order repeats with
		// period nine until the first of the original eight is done.
		for i := want + 9; i < 8*each; i++ {
			if order[i] != order[i-9] {
				t.Errorf("%s: acquisition %d went to %d, nine earlier to %d: not FIFO", mode, i, order[i], order[i-9])
				break
			}
		}
	}
}

func TestPredicateWaiterStaysOnSignal(t *testing.T) {
	k := NewKernel()
	var sig Signal
	ready, woke := false, time.Duration(-1)
	k.Go("w", func(p *Proc) {
		p.WaitCond(&sig, -1, func() bool { return ready })
		woke = p.Now()
	})
	var switchesAfterFalse int64
	k.After(time.Millisecond, func() { sig.Broadcast(k) })
	k.After(2*time.Millisecond, func() {
		if len(sig.waiters) != 1 {
			t.Errorf("%d waiters on the signal after a broadcast its predicate declined, want 1", len(sig.waiters))
		}
		switchesAfterFalse = k.Stats().Switches
		ready = true
	})
	// ready is true but nobody broadcast: the predicate is only evaluated at
	// a wake-up event.
	k.After(3*time.Millisecond, func() {
		if woke >= 0 {
			t.Error("waiter resumed without a broadcast")
		}
		sig.Broadcast(k)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if switchesAfterFalse != 1 {
		t.Errorf("%d switches after the declined broadcast, want 1 (the spawn)", switchesAfterFalse)
	}
	if woke != 3*time.Millisecond {
		t.Errorf("woke at %v, want 3ms", woke)
	}
}

func TestHeapHoldsOnlyLiveTimers(t *testing.T) {
	const waits = 10000
	k := NewKernel()
	var sig Signal
	timeouts := 0
	k.Go("waiter", func(p *Proc) {
		for i := 0; i < waits; i++ {
			if p.Wait(&sig, 100*time.Millisecond) {
				timeouts++
			}
		}
	})
	k.Go("ticker", func(p *Proc) {
		for i := 0; i < waits; i++ {
			p.Sleep(time.Microsecond)
			sig.Broadcast(k)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if timeouts != 0 || st.TimersCancelled != waits {
		t.Errorf("%d timeouts, %d timers cancelled, want 0 and %d", timeouts, st.TimersCancelled, waits)
	}
	// Two live processes, no frames: a pending timeout and the ticker's
	// sleep, or a wake-up and the ticker's sleep.
	if st.HeapPeak > 2 {
		t.Errorf("heap peak %d after %d cancelled 100ms timeouts, want <= 2", st.HeapPeak, waits)
	}
	if k.Now() >= 100*time.Millisecond {
		t.Errorf("run ended at %v: a cancelled timeout kept the clock running", k.Now())
	}
}

func TestTimerCancelIsInert(t *testing.T) {
	k := NewKernel()
	fired := 0
	first := k.After(time.Millisecond, func() { fired++ })
	var self Timer
	self = k.After(2*time.Millisecond, func() {
		fired++
		// first has fired and its record is on top of the pool; self's is
		// popped but not yet recycled.
		first.Cancel()
		self.Cancel()
		reuse := k.After(time.Millisecond, func() { fired++ })
		if reuse.ev != first.ev {
			t.Errorf("pool did not reuse the fired record")
		}
		first.Cancel() // stale generation: must not touch reuse
		self.Cancel()
		k.After(time.Millisecond, func() { fired++ })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	first.Cancel()
	self.Cancel()
	// A record recycled twice would be handed out twice and one of the two
	// closing events would overwrite the other.
	if fired != 4 {
		t.Errorf("%d events fired, want 4", fired)
	}
	if st := k.Stats(); st.TimersCancelled != 0 || st.Events != 4 {
		t.Errorf("stats %+v, want 4 events and nothing cancelled", st)
	}
}

func TestCancelledTimeoutNeverTouchesRecycledWaiter(t *testing.T) {
	k := NewKernel()
	var a, b Signal
	var bTimedOut bool
	var bWoke time.Duration
	k.Go("first", func(p *Proc) {
		if p.Wait(&a, 5*time.Millisecond) {
			t.Error("first timed out despite the broadcast at 1ms")
		}
	})
	k.After(time.Millisecond, func() { a.Broadcast(k) })
	k.After(2*time.Millisecond, func() {
		k.Go("second", func(p *Proc) {
			// Takes the waiter record "first" returned to the pool, whose
			// cancelled timeout was due at 5ms.
			bTimedOut = p.Wait(&b, -1)
			bWoke = p.Now()
		})
	})
	k.After(10*time.Millisecond, func() { b.Broadcast(k) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bTimedOut || bWoke != 10*time.Millisecond {
		t.Errorf("second: timedOut=%v at %v, want a broadcast wake-up at 10ms", bTimedOut, bWoke)
	}
	if n := k.Stats().TimersCancelled; n != 1 {
		t.Errorf("%d timers cancelled, want 1", n)
	}
}

// pingPong is a small two-station exchange with a stop-and-wait shape,
// retransmitting through seeded loss; it returns a trace of every packet
// either side received and when.
func pingPong(t *testing.T, k *Kernel, drive func() error) []string {
	t.Helper()
	n, err := NewNetwork(k, params.Standalone3Com(), params.LossModel{PNet: 0.2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.AddStation("src"), n.AddStation("dst")
	var trace []string
	k.Go("sender", func(p *Proc) {
		for seq := uint32(0); seq < 20; seq++ {
			for {
				src.Send(p, dst, dataPkt(seq))
				if _, err := src.Recv(p, 20*time.Millisecond); err == nil {
					trace = append(trace, fmt.Sprint("ack ", seq, " ", p.Now()))
					break
				}
			}
		}
		dst.Close()
	})
	k.Go("receiver", func(p *Proc) {
		for {
			pkt, err := dst.Recv(p, -1)
			if err != nil {
				return
			}
			trace = append(trace, fmt.Sprint("data ", pkt.Seq, " ", p.Now()))
			dst.Send(p, src, ackPkt())
		}
	})
	if err := drive(); err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestStepAndRunInterleave(t *testing.T) {
	k := NewKernel()
	want := pingPong(t, k, k.Run)
	if len(want) < 40 {
		t.Fatalf("trace has %d entries, want at least 40", len(want))
	}
	events := k.Stats().Events

	k = NewKernel()
	got := pingPong(t, k, func() error {
		for i := 0; i < 25; i++ {
			if more, err := k.Step(); !more || err != nil {
				return fmt.Errorf("step %d: more=%v err=%v", i, more, err)
			}
		}
		if err := k.Run(); err != nil { // drains the heap
			return err
		}
		if more, err := k.Step(); more || err != nil {
			return fmt.Errorf("step on a drained heap: more=%v err=%v", more, err)
		}
		return k.Run()
	})
	if !reflect.DeepEqual(got, want) || k.Stats().Events != events {
		t.Errorf("Step+Run trace differs from Run's (%d vs %d events)", k.Stats().Events, events)
	}

	k = NewKernel()
	got = pingPong(t, k, func() error {
		for {
			if more, err := k.Step(); !more {
				return err
			}
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Error("Step-only trace differs from Run's")
	}
}

func TestResetRerunReproducesTraceAndStats(t *testing.T) {
	k := NewKernel()
	want := pingPong(t, k, k.Run)
	st := k.Stats()
	k.Reset()
	if k.Stats() != (KernelStats{}) {
		t.Errorf("stats after Reset = %+v, want zero", k.Stats())
	}
	if got := pingPong(t, k, k.Run); !reflect.DeepEqual(got, want) {
		t.Error("rerun after Reset produced a different trace")
	}
	if k.Stats() != st {
		t.Errorf("rerun stats %+v, first run %+v", k.Stats(), st)
	}
}

func TestPanickingProcessReportedByName(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	err := k.Run()
	if err == nil || err.Error() != `sim: process "boom" panicked: kaboom` {
		t.Errorf("err = %v", err)
	}
}

// settle waits for the goroutine count to come back to base: a coroutine's
// goroutine exits on its own thread of control just after stop returns.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, started with %d: a parked process outlived its kernel", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParkedProcessesDoNotOutliveTheirKernel(t *testing.T) {
	base := runtime.NumGoroutine()

	// (a) A deadlocked run.
	k := NewKernel()
	var never Signal
	unwound := 0
	k.Go("stuck", func(p *Proc) {
		defer func() { unwound++ }()
		p.Wait(&never, -1)
		t.Error("stuck returned from Wait")
	})
	err := k.Run()
	if err == nil || err.Error() != "sim: deadlock: 1 process(es) blocked with no pending events at t=0s" {
		t.Errorf("deadlock err = %v", err)
	}
	if unwound != 1 {
		t.Errorf("stuck's deferred calls ran %d times, want 1", unwound)
	}
	if again := k.Run(); again == nil || again.Error() != err.Error() {
		t.Errorf("Run after a deadlock = %v, want the same error", again)
	}
	settle(t, base, "deadlock")

	// (b) One process panics while two are blocked, one of them a daemon
	// and one mid-Sleep with its resume still on the heap.
	k = NewKernel()
	unwound = 0
	k.Go("daemon", func(p *Proc) {
		defer func() { unwound++ }()
		p.Daemon()
		p.Wait(&never, -1)
	})
	k.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
		t.Error("sleeper ran after the failure")
	})
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	if err := k.Run(); err == nil || err.Error() != `sim: process "boom" panicked: kaboom` {
		t.Errorf("panic err = %v", err)
	}
	if unwound != 2 || k.Now() != time.Millisecond {
		t.Errorf("unwound %d blocked processes at %v, want 2 at 1ms (no event may fire during the unwind)", unwound, k.Now())
	}
	settle(t, base, "panic with blocked siblings")

	// The same failure seen through Step.
	k = NewKernel()
	k.Go("waiter", func(p *Proc) { p.Wait(&never, -1) })
	k.Go("boom", func(p *Proc) { panic("kaboom") })
	for {
		more, err := k.Step()
		if err != nil {
			if !strings.Contains(err.Error(), `"boom" panicked`) {
				t.Errorf("step err = %v", err)
			}
			break
		}
		if !more {
			t.Fatal("heap drained without reporting the panic")
		}
	}
	settle(t, base, "panic under Step")

	// (c) A daemon parked after a clean run survives until Reset: a later
	// Run on the same kernel can still wake it.
	k = NewKernel()
	var poke Signal
	served := 0
	k.Go("daemon", func(p *Proc) {
		p.Daemon()
		for {
			p.Wait(&poke, -1)
			served++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.After(time.Millisecond, func() { poke.Broadcast(k) })
	if err := k.Run(); err != nil || served != 1 {
		t.Fatalf("second Run: err=%v served=%d, want the parked daemon woken once", err, served)
	}
	k.Reset()
	settle(t, base, "daemon after Reset")

	for i := 0; i < 1000; i++ {
		k.Go("daemon", func(p *Proc) {
			p.Daemon()
			p.Wait(&never, -1)
		})
		k.Go("worker", func(p *Proc) { p.Sleep(time.Millisecond) })
		if err := k.Run(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		k.Reset()
	}
	settle(t, base, "1000 Run+Reset cycles")

	// A process spawned and never started has no coroutine to leak.
	k.Go("unstarted", func(p *Proc) { t.Error("ran") })
	k.Reset()
	if err := k.Run(); err != nil {
		t.Errorf("Run after Reset = %v: the unwinds must not be recorded as failures", err)
	}
	settle(t, base, "unstarted process")
}
