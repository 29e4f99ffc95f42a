package simrun

import (
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
)

// crashScenario is the canonical 16-client crash/restart recovery scenario:
// a seeded mixed workload against a capped server that dies twice on its
// served-chunk schedule. Every client is expected to complete via resume.
func crashScenario(seed int64) FaultScenario {
	return FaultScenario{
		Name:       "crash16",
		N:          16,
		Bytes:      []int{64 << 10, 128 << 10},
		Strategies: []core.Strategy{core.GoBackN, core.FullNak},
		Arrival:    200 * time.Millisecond,
		Faults: params.Faults{
			CrashAfterChunks: []int64{300, 900},
			Downtime:         150 * time.Millisecond,
		},
		Seed: seed,
	}
}

// TestFaultScenarioRecovers: the crash schedule fires, sessions die, and
// every client still completes with an intact checksum — no duplicate chunk
// ever reaches a client sink.
func TestFaultScenarioRecovers(t *testing.T) {
	res, err := crashScenario(7).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Crashes != 2 || res.Restarts != 2 {
		t.Fatalf("crash schedule did not fire: crashes=%d restarts=%d", res.Crashes, res.Restarts)
	}
	if res.Completed != 16 {
		for _, c := range res.Clients {
			if !c.Completed || !c.ChecksumOK {
				t.Errorf("client %d: completed=%v checksumOK=%v sessions=%d err=%q",
					c.Client, c.Completed, c.ChecksumOK, c.Resume.Sessions, c.Err)
			}
		}
		t.Fatalf("completed %d/16 clients", res.Completed)
	}
	if res.Sessions <= 16 {
		t.Fatalf("no client ever resumed (sessions=%d); the crashes were free", res.Sessions)
	}
	if res.Resumed == 0 {
		t.Fatalf("no chunks were re-requested; recovery did not go through offset REQs")
	}
	if res.Dups != 0 {
		t.Fatalf("resumed clients re-received %d verified chunks; resume REQs must start at the frontier", res.Dups)
	}
}

// TestFaultScenarioDeterministic: the whole recovery schedule — which
// sessions die, how many resumes and BUSY waits each client needs, the
// virtual-time makespan — is a pure function of the seed, at any worker
// count. Each seed runs once per worker count, so the whole results,
// per-client recovery ledgers included, must also repeat run to run.
func TestFaultScenarioDeterministic(t *testing.T) {
	requireWorkerInvariant(t, 3, 11, func(seed int64) (FaultResult, error) {
		return crashScenario(seed).Run()
	})
}

// TestFaultScenarioCounterPinned: a single client whose serving session is
// killed mid-blast provably re-fetches only unverified chunks — every chunk
// crosses the wire to the sink exactly once (DataRecv == chunk count,
// DupChunks == 0) even though it took two sessions.
func TestFaultScenarioCounterPinned(t *testing.T) {
	const chunks = 200
	sc := FaultScenario{
		Name:  "pin",
		N:     1,
		Bytes: []int{chunks * 1000},
		Chunk: 1000,
		Faults: params.Faults{
			CrashAfterChunks: []int64{80},
			Downtime:         150 * time.Millisecond,
		},
		Seed: 3,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	c := res.Clients[0]
	if !c.Completed || !c.ChecksumOK {
		t.Fatalf("client did not recover: %+v", c)
	}
	if c.Resume.Sessions != 2 {
		t.Fatalf("expected exactly one resume (2 sessions), got %d", c.Resume.Sessions)
	}
	if c.Resume.DupChunks != 0 {
		t.Fatalf("resume re-received %d verified chunks", c.Resume.DupChunks)
	}
	if c.DataRecv != chunks {
		t.Fatalf("chunks crossing the wire = %d, want exactly %d (each chunk once)", c.DataRecv, chunks)
	}
	if c.Resume.ResumedChunks == 0 || c.Resume.ResumedChunks >= chunks {
		t.Fatalf("resume REQ re-requested %d of %d chunks; want a strict mid-transfer tail", c.Resume.ResumedChunks, chunks)
	}
	// The two sessions partition the stream at the crash frontier.
	if first := c.DataRecv - c.Resume.ResumedChunks; first+c.Resume.ResumedChunks != chunks {
		t.Fatalf("sessions do not partition the stream: first=%d resumed=%d total=%d",
			first, c.Resume.ResumedChunks, chunks)
	}
}

// TestFaultScenarioBlackhole: a client whose receive path goes dark for a
// stretch of the stream still completes (in-session NAK recovery or a
// resume, depending on strategy), with no duplicate sink deliveries.
func TestFaultScenarioBlackhole(t *testing.T) {
	sc := FaultScenario{
		Name:       "blackhole",
		N:          2,
		Bytes:      []int{96 << 10},
		Strategies: []core.Strategy{core.GoBackN},
		Faults: params.Faults{
			BlackholeAfter: 20,
			BlackholeCount: 40,
		},
		Seed: 5,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d/2: %+v", res.Completed, res.Clients)
	}
	if res.Dups != 0 {
		t.Fatalf("blackhole recovery delivered %d duplicate chunks", res.Dups)
	}
}

// TestFaultScenarioOverload: far more clients than the session cap. The
// server sheds load with BUSY/RETRY-AFTER, clients honor the hint with
// jittered backoff, and everyone eventually completes — deterministically.
func TestFaultScenarioOverload(t *testing.T) {
	n := 4096
	arrival := 100 * time.Millisecond
	if testing.Short() {
		// Keep the full run's arrival *rate*: 512 clients trickling in
		// over the same 100 ms window never oversubscribe the 8-session
		// cap, and an overload test without refusals is vacuous.
		n, arrival = 512, 100*time.Millisecond/8
	}
	sc := FaultScenario{
		Name:        "overload",
		N:           n,
		Bytes:       []int{4 << 10},
		Concurrency: 8,
		RetryAfter:  50 * time.Millisecond,
		Arrival:     arrival,
		// Deep refusal queues: a late client may be refused many times
		// before a slot frees up.
		MaxBusyWaits: 1 << 20,
		Seed:         9,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d/%d clients under overload", res.Completed, n)
	}
	if res.BusyWaits == 0 {
		t.Fatalf("no BUSY refusals at %d clients over an 8-session cap; admission control is not engaging", n)
	}
	if res.Crashes != 0 || res.Dups != 0 {
		t.Fatalf("unexpected crashes=%d dups=%d", res.Crashes, res.Dups)
	}
}
