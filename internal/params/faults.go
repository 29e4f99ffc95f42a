// Faults describes whole-process failures — the companion to Adversary,
// which only mistreats individual packets. The paper's protocols assume a
// live correspondent; the failure-recovery layer (core.PullResume, the
// restartable server) exists for the cases the paper does not model: a
// server that crashes and restarts mid-transfer, a client that goes dark.
// Like the Adversary, a Faults value is substrate-independent: the simulator
// closes and reopens the serving station, the UDP server closes and rebinds
// its socket, and both consult the same deterministic trigger, so one fault
// schedule reproduces identically everywhere.
package params

import (
	"fmt"
	"sync"
	"time"

	"blastlan/internal/wire"
)

// Faults is a seedable whole-process failure schedule.
//
// The zero Faults is inactive (nothing ever crashes).
type Faults struct {
	// CrashAfterChunks schedules server crashes on the cumulative count of
	// data chunks served across all sessions: the server dies when its
	// trigger observes the Nth chunk for each threshold, in order. Counting
	// served chunks (not wall or virtual time) is what makes the schedule
	// deterministic on the simulator and closely reproducible on real UDP.
	CrashAfterChunks []int64

	// Downtime is how long a crashed server stays down before restarting
	// (default 200ms). During downtime REQs and ACKs fall on the floor, so
	// clients observe give-ups and resume once the server is back.
	Downtime time.Duration

	// BlackholeAfter and BlackholeCount describe a client-side blackhole:
	// starting at the BlackholeAfter-th data chunk the client receives (
	// 1-based), BlackholeCount consecutive data packets are dropped before
	// delivery — a client that goes dark mid-transfer and comes back.
	// Zero BlackholeAfter disables it.
	BlackholeAfter int64
	BlackholeCount int64
}

// Validate reports whether the schedule is usable: crash thresholds must be
// positive and strictly increasing (each names a cumulative chunk count).
func (f Faults) Validate() error {
	prev := int64(0)
	for _, c := range f.CrashAfterChunks {
		if c <= prev {
			return fmt.Errorf("params: crash thresholds must be positive and strictly increasing")
		}
		prev = c
	}
	if f.BlackholeAfter < 0 || f.BlackholeCount < 0 {
		return fmt.Errorf("params: blackhole bounds must be non-negative")
	}
	if f.Downtime < 0 {
		return fmt.Errorf("params: downtime must be non-negative")
	}
	return nil
}

// RestartDelay returns the effective downtime before a crashed server
// restarts.
func (f Faults) RestartDelay() time.Duration {
	if f.Downtime > 0 {
		return f.Downtime
	}
	return 200 * time.Millisecond
}

// Trigger instantiates the crash schedule as a concurrency-safe counter.
func (f Faults) Trigger() *CrashTrigger {
	return &CrashTrigger{thresholds: f.CrashAfterChunks}
}

// CrashTrigger counts served chunks against a crash schedule. Sessions call
// OnChunk for every data chunk they serve; it returns true exactly once per
// threshold — at the moment the cumulative count crosses it — and the caller
// performs the crash (closing the serving station or socket). Safe for
// concurrent sessions; under the simulator's handoff scheduling the mutex is
// uncontended and the count order is deterministic.
type CrashTrigger struct {
	mu         sync.Mutex
	thresholds []int64
	next       int
	served     int64
}

// OnChunk records one served chunk and reports whether a scheduled crash
// fires now.
func (t *CrashTrigger) OnChunk() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.served++
	if t.next < len(t.thresholds) && t.served >= t.thresholds[t.next] {
		t.next++
		return true
	}
	return false
}

// Crashes reports how many scheduled crashes have fired.
func (t *CrashTrigger) Crashes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Served reports the cumulative chunk count observed so far.
func (t *CrashTrigger) Served() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.served
}

// BlackholeHook builds a stateful receive-side mangle hook implementing the
// schedule's client blackhole: after BlackholeAfter data chunks have been
// delivered, the next BlackholeCount data packets are dropped. Install it as
// a receive-direction mangle (Endpoint.MangleRx, Station.MangleRx); non-data
// packets pass untouched so the handshake stays alive. Returns nil when the
// schedule has no blackhole.
func (f Faults) BlackholeHook() func(pkt *wire.Packet) Mangle {
	if f.BlackholeAfter <= 0 || f.BlackholeCount <= 0 {
		return nil
	}
	var mu sync.Mutex
	seen := int64(0)
	return func(pkt *wire.Packet) Mangle {
		if pkt.Type != wire.TypeData {
			return Mangle{}
		}
		mu.Lock()
		defer mu.Unlock()
		seen++
		if seen > f.BlackholeAfter && seen <= f.BlackholeAfter+f.BlackholeCount {
			return Mangle{Drop: true}
		}
		return Mangle{}
	}
}
