package simrun

import (
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// crashScenario is the canonical 16-client crash/restart recovery scenario:
// a seeded mixed workload against a capped server that dies twice on its
// served-chunk schedule. Every client is expected to complete via resume.
func crashScenario(seed int64) LoadScenario {
	return LoadScenario{
		Name:       "crash16",
		N:          16,
		Bytes:      []int{64 << 10, 128 << 10},
		Strategies: []core.Strategy{core.GoBackN, core.FullNak},
		Arrival:    200 * time.Millisecond,
		Faults:     params.Faults{CrashAfterChunks: []int64{300, 900}, Downtime: 150 * time.Millisecond},
		Resume:     &core.ResumeOptions{Backoff: 20 * time.Millisecond},
		Seed:       seed,
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
	if res.Resume.Sessions <= 16 {
		t.Fatalf("no client ever resumed (sessions=%d); the crashes were free", res.Resume.Sessions)
	}
	if res.Resume.ResumedChunks == 0 {
		t.Fatalf("no chunks were re-requested; recovery did not go through offset REQs")
	}
	if res.Resume.DupChunks != 0 {
		t.Fatalf("resumed clients re-received %d verified chunks; resume REQs must start at the frontier", res.Resume.DupChunks)
	}
}

// TestFaultScenarioDeterministic: the whole recovery schedule — which
// sessions die, how many resumes and BUSY waits each client needs, the
// virtual-time makespan — is a pure function of the seed, at any worker
// count. Each seed runs once per worker count, so the whole results,
// per-client recovery ledgers included, must also repeat run to run.
func TestFaultScenarioDeterministic(t *testing.T) {
	requireWorkerInvariant(t, 3, 11, func(seed int64) (LoadResult, error) {
		return crashScenario(seed).Run()
	})
}

// TestFaultScenarioCounterPinned: a single client whose serving session is
// killed mid-blast provably re-fetches only unverified chunks — every chunk
// crosses the wire to the sink exactly once (distinct arrivals == chunk
// count, DupChunks == 0) even though it took two sessions.
func TestFaultScenarioCounterPinned(t *testing.T) {
	const chunks = 200
	sc := LoadScenario{
		Name:   "pin",
		N:      1,
		Bytes:  []int{chunks * 1000},
		Chunk:  1000,
		Faults: params.Faults{CrashAfterChunks: []int64{80}, Downtime: 150 * time.Millisecond},
		Resume: &core.ResumeOptions{Backoff: 20 * time.Millisecond},
		Seed:   3,
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
	if distinct := c.Counts.DataRecv - c.Counts.Duplicates; distinct != chunks {
		t.Fatalf("chunks crossing the wire = %d, want exactly %d (each chunk once)", distinct, chunks)
	}
	// The two sessions partition the stream at the crash frontier.
	if c.Resume.ResumedChunks == 0 || c.Resume.ResumedChunks >= chunks {
		t.Fatalf("resume REQ re-requested %d of %d chunks; want a strict mid-transfer tail", c.Resume.ResumedChunks, chunks)
	}
}

// TestResumeCountsLingerOnce: a resumable pull whose completion ACK is lost
// gets its last packet again in its linger; that arrival is a duplicate,
// not a distinct chunk, and is counted once: distinct arrivals are exactly
// the chunk count.
func TestResumeCountsLingerOnce(t *testing.T) {
	const chunks = 64
	lost := false
	res, err := LoadScenario{Name: "lost-ack", N: 1, Bytes: []int{chunks * 1000}, Chunk: 1000,
		Adversary: params.Adversary{Script: func(p *wire.Packet) params.Mangle {
			drop := !lost && p.Type == wire.TypeAck && p.Flags&wire.FlagAllReceived != 0
			lost = lost || drop
			return params.Mangle{Drop: drop}
		}},
		Resume: &core.ResumeOptions{}, Seed: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	if !lost || !c.Completed || c.Counts.DataSent != chunks+1 {
		t.Fatalf("ack lost %v, completed %v, %d data packets sent: want the last re-sent once", lost, c.Completed, c.Counts.DataSent)
	}
	if distinct := c.Counts.DataRecv - c.Counts.Duplicates; distinct != chunks {
		t.Fatalf("%d distinct data arrivals, want %d", distinct, chunks)
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
	sc := LoadScenario{
		Name:        "overload",
		N:           n,
		Bytes:       []int{4 << 10},
		Concurrency: 8,
		RetryAfter:  50 * time.Millisecond,
		Arrival:     arrival,
		// Deep refusal queues: a late client may be refused many times
		// before a slot frees up.
		Resume: &core.ResumeOptions{MaxBusyWaits: 1 << 20, Backoff: 20 * time.Millisecond},
		Seed:   9,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d/%d clients under overload", res.Completed, n)
	}
	if res.Resume.BusyWaits == 0 {
		t.Fatalf("no BUSY refusals at %d clients over an 8-session cap; admission control is not engaging", n)
	}
	if res.Crashes != 0 || res.Resume.DupChunks != 0 {
		t.Fatalf("unexpected crashes=%d dups=%d", res.Crashes, res.Resume.DupChunks)
	}
}
