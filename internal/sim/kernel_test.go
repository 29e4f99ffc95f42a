package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.Go("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15*time.Millisecond {
		t.Errorf("final time = %v, want 15ms", at)
	}
	if k.Now() != 15*time.Millisecond {
		t.Errorf("kernel time = %v", k.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) { p.Sleep(-time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Errorf("time advanced by negative sleep: %v", k.Now())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(2 * time.Millisecond)
				log = append(log, "a")
			}
		})
		k.Go("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(3 * time.Millisecond)
				log = append(log, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	// a wakes at 2, 4, 6 ms; b wakes at 3, 6 ms. The 6 ms tie goes to b,
	// whose wake event was scheduled earlier (at t=3 ms vs t=4 ms).
	want := []string{"a", "b", "a", "b", "a"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v", trial, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events out of order: %v", order)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.After(time.Millisecond, func() { fired = true })
	tm.Cancel()
	tm.Cancel()        // idempotent
	(Timer{}).Cancel() // zero Timer is a no-op
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.After(10*time.Millisecond, func() {
		k.Schedule(2*time.Millisecond, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Errorf("past event fired at %v", at)
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	k := NewKernel()
	var sig Signal
	woken := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			if timedOut := p.Wait(&sig, -1); timedOut {
				t.Error("unexpected timeout")
			}
			woken++
		})
	}
	k.After(time.Millisecond, func() { sig.Broadcast(k) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestWaitTimeout(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var timedOut bool
	var at time.Duration
	k.Go("w", func(p *Proc) {
		timedOut = p.Wait(&sig, 7*time.Millisecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("expected timeout")
	}
	if at != 7*time.Millisecond {
		t.Errorf("timed out at %v", at)
	}
}

func TestWaitSignalCancelsTimer(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var timedOut bool
	k.Go("w", func(p *Proc) {
		timedOut = p.Wait(&sig, 10*time.Millisecond)
		p.Sleep(50 * time.Millisecond) // outlive the abandoned deadline
	})
	k.After(time.Millisecond, func() { sig.Broadcast(k) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Error("signal arrived before deadline but Wait reported timeout")
	}
}

func TestWaitCond(t *testing.T) {
	k := NewKernel()
	var sig Signal
	ready := false
	var ok bool
	k.Go("w", func(p *Proc) {
		ok = p.WaitCond(&sig, -1, func() bool { return ready })
	})
	k.After(time.Millisecond, func() { sig.Broadcast(k) }) // spurious
	k.After(2*time.Millisecond, func() {
		ready = true
		sig.Broadcast(k)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("WaitCond should have succeeded")
	}
}

func TestWaitCondDeadline(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var ok bool
	k.Go("w", func(p *Proc) {
		ok = p.WaitCond(&sig, 3*time.Millisecond, func() bool { return false })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("WaitCond should have timed out")
	}
	if k.Now() != 3*time.Millisecond {
		t.Errorf("deadline at %v", k.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Go("stuck", func(p *Proc) { p.Wait(&sig, -1) })
	if err := k.Run(); err == nil {
		t.Error("expected deadlock error")
	}
}

func TestProcPanicReported(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	if err := k.Run(); err == nil {
		t.Error("expected panic to surface as error")
	}
}

// Property-style test: a random schedule of sleeps always fires in
// nondecreasing time order regardless of insertion order.
func TestHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		k := NewKernel()
		var fired []time.Duration
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(1000)) * time.Microsecond
			k.Schedule(at, func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != n {
			t.Fatalf("fired %d of %d", len(fired), n)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("out of order at %d: %v < %v", i, fired[i], fired[i-1])
			}
		}
	}
}
