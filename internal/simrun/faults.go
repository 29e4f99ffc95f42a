package simrun

import (
	"fmt"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/wire"
)

// FaultScenario is a failure-recovery experiment: N seeded clients pull
// from one sharded server while a params.Faults schedule kills and restarts
// the server mid-transfer (and optionally blackholes a client's receive
// path). One orchestration runs it on the discrete-event simulator (Run)
// and over UDP loopback (RunUDP), where a crash closes the socket and a
// fresh server rebinds the address. Clients run the resumable-pull engine
// (core.PullResume), so every client is expected to complete with an intact
// checksum despite the crashes — and on the simulator, because crashes
// trigger on the deterministic count of served chunks and everything runs
// under the kernel's handoff scheduling, the entire recovery schedule
// (which sessions die, at which chunk, how each client backs off and
// resumes) reproduces bit for bit at any worker count.
//
// The same scenario shape doubles as the overload experiment: with no
// crashes, a small Concurrency cap and a large N, refused clients observe
// BUSY/RETRY-AFTER replies and complete via backoff.
type FaultScenario struct {
	// Name labels the scenario in test output and experiment tables.
	Name string
	// Cost is the simulator hardware model; the zero value means the
	// modern-gigabit preset.
	Cost params.CostModel
	// N is the number of clients (default 4).
	N int
	// Bytes is the transfer-size mix; each client draws one entry (seeded).
	// Default {64 KB}.
	Bytes []int
	// Strategies is the blast retransmission-strategy mix. Default {GoBackN}.
	Strategies []core.Strategy
	// Chunk is the data packet size (default params.DataPacketSize).
	Chunk int
	// Window splits blasts (0: single blast per transfer).
	Window int
	// Tr is the clients' retransmission timeout (default 100 ms virtual).
	Tr time.Duration
	// Arrival staggers the clients uniformly over [0, Arrival).
	Arrival time.Duration
	// Concurrency is the server's session cap (default 4); refused REQs are
	// answered with BUSY/RETRY-AFTER.
	Concurrency int
	// RetryAfter overrides the server's BUSY back-off hint (0: server
	// default).
	RetryAfter time.Duration
	// Faults is the failure schedule: server crashes on cumulative served
	// chunks, restart downtime, optional client-0 receive blackhole.
	Faults params.Faults
	// MaxResumes, MaxBusyWaits and Backoff tune each client's resume engine
	// (zero values take core.ResumeOptions defaults; Backoff defaults to
	// 20ms virtual here, well under a retransmission timeout).
	MaxResumes   int
	MaxBusyWaits int
	Backoff      time.Duration
	// Seed drives every stochastic choice (sizes, strategies, arrivals,
	// backoff jitter).
	Seed int64
}

// withFaultDefaults fills the zero fields: a load scenario's defaults,
// except 4 clients, plus a 20ms backoff.
func (sc FaultScenario) withFaultDefaults() FaultScenario {
	if sc.N <= 0 {
		sc.N = 4
	}
	if sc.Backoff <= 0 {
		sc.Backoff = 20 * time.Millisecond
	}
	d := LoadScenario{N: sc.N, Bytes: sc.Bytes, Strategies: sc.Strategies, Chunk: sc.Chunk, Tr: sc.Tr,
		Concurrency: sc.Concurrency}.withLoadDefaults()
	sc.Bytes, sc.Strategies, sc.Chunk, sc.Tr, sc.Concurrency = d.Bytes, d.Strategies, d.Chunk, d.Tr, d.Concurrency
	return sc
}

// FaultClientResult is one client's end-to-end recovery outcome.
type FaultClientResult struct {
	Client     int
	TransferID uint32
	Bytes      int
	Strategy   core.Strategy
	Arrival    time.Duration
	Start      time.Duration
	End        time.Duration
	Elapsed    time.Duration
	Completed  bool
	ChecksumOK bool
	// Resume is the client's recovery ledger: sessions issued, BUSY waits
	// honored, chunks re-requested, duplicate arrivals discarded.
	Resume core.ResumeStats
	// DataRecv is the client's distinct-progress data arrivals summed
	// across all of its sessions (linger traffic excluded) — with
	// Resume.DupChunks it pins that a resumed client re-fetched only
	// unverified chunks.
	DataRecv int
	Err      string
}

// FaultResult reports one fault-scenario run.
type FaultResult struct {
	Clients   []FaultClientResult
	Completed int   // clients that finished with an intact payload
	Served    int   // transfers the server completed across incarnations
	Crashes   int   // scheduled crashes that fired
	Restarts  int   // server incarnations beyond the first
	Sessions  int   // client sessions summed (N means no recovery happened)
	BusyWaits int   // BUSY refusals honored across clients
	Resumed   int   // chunks re-requested by resume REQs
	Dups      int   // duplicate chunk arrivals discarded by clients
	AggBytes  int64 // payload bytes delivered across all clients
	Makespan  time.Duration
}

// Run executes the scenario once on the discrete-event simulator: one
// kernel, a restartable server process, N resumable-client processes.
// Deterministic — same seed, same bits — at any GOMAXPROCS.
func (sc FaultScenario) Run() (FaultResult, error) {
	sc = sc.withFaultDefaults()
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return FaultResult{}, err
	}
	return sc.run(w, false)
}

// RunUDP executes the scenario once over real UDP loopback sockets: a crash
// closes the server's socket under its sessions and a fresh server rebinds
// the address after the downtime; clients resume on the socket they have.
// Times in the result are wall-clock; Cost is ignored.
func (sc FaultScenario) RunUDP(u UDP) (FaultResult, error) {
	return sc.withFaultDefaults().run(newUDPWorld(u), u.KeepData)
}

// run is the fault scenario, written once against the substrate seam. The
// server streams seeded chunks (like blastd) and the crash trigger rides the
// source, so "crash after the Nth served chunk" counts every chunk that
// crosses any session — deterministically on the simulator. keep has every
// client assemble its bytes and compare them with the seeded stream.
func (sc FaultScenario) run(sub substrate, keep bool) (FaultResult, error) {
	if err := sc.Faults.Validate(); err != nil {
		return FaultResult{}, err
	}
	trigger := sc.Faults.Trigger()
	var (
		mu       sync.Mutex // UDP sessions crash the server on their own goroutines
		srv      host
		restarts int
		log      servedLog
	)
	crash := func() {
		mu.Lock()
		defer mu.Unlock()
		if sub.crash(srv, sc.Faults.RestartDelay()) {
			restarts++
		}
	}
	h, err := sub.serve("server", func(s *session.Server) {
		s.Concurrency = sc.Concurrency
		s.RetryAfter = sc.RetryAfter
		s.Idle = sc.Arrival + 5*time.Minute
		// Reap orphaned sessions fast: after a crash the old incarnation's
		// session bodies must release their threads in bounded time, not the
		// 30s default.
		s.SessionIdle = 2 * time.Second
		s.Source = func(r wire.Req) (core.ChunkSource, bool) {
			base, ok := core.SeededReqSource(r)
			if !ok {
				return nil, false
			}
			return func(seq int, dst []byte) []byte {
				if trigger.OnChunk() {
					crash()
				}
				return base(seq, dst)
			}, true
		}
		s.Done = log.done
	})
	if err != nil {
		return FaultResult{}, fmt.Errorf("simrun: faults %s: %w", sc.Name, err)
	}
	mu.Lock()
	srv = h
	mu.Unlock()

	blackhole := sc.Faults.BlackholeHook()
	results := make([]FaultClientResult, sc.N)
	want := seededSums(sc.Bytes, sc.Chunk)
	draws := drawClients(sc.Seed*-8296271519245169997+3751637671895480951, sc.N, sc.Bytes, sc.Strategies, sc.Arrival)
	for i, d := range draws {
		r := &results[i]
		r.Client, r.Bytes, r.Strategy, r.Arrival = i, d.bytes, d.strategy, d.arrival
		r.TransferID = uint32(i + 1)
		var adv params.Adversary
		if i == 0 && blackhole != nil {
			// Client 0 goes dark for a stretch of its receive stream.
			adv = params.Adversary{Script: blackhole}
		}
		sink, intact := seededPull(d.bytes, sc.Chunk, want[d.bytes], keep)
		sub.client(fmt.Sprintf("client%d", i), h, d.arrival, adv, sc.Seed, func(env core.Env) {
			cfg := core.Config{
				TransferID:     r.TransferID,
				Bytes:          d.bytes,
				ChunkSize:      sc.Chunk,
				Protocol:       core.Blast,
				Strategy:       d.strategy,
				Window:         sc.Window,
				RetransTimeout: sc.Tr,
				// One REQ round per session: a quiet server means the session
				// is dead and recovery belongs to the resume layer's offset
				// REQs — an in-session REQ retry would re-request the full
				// range and re-receive verified chunks.
				MaxAttempts: 1,
				Sink:        sink,
			}
			r.Start = sub.now()
			res, rstats, err := core.PullResume(env, cfg, core.ResumeOptions{
				MaxResumes:   sc.MaxResumes,
				MaxBusyWaits: sc.MaxBusyWaits,
				Backoff:      sc.Backoff,
				Seed:         sc.Seed + int64(i),
			})
			r.End = sub.now()
			r.Elapsed = r.End - r.Start
			r.Resume = rstats
			r.DataRecv = res.DataPackets - res.Duplicates - res.LingerEvents
			if err != nil {
				r.Err = err.Error()
				return
			}
			r.Completed, r.ChecksumOK = res.Completed, intact(res)
		})
	}
	if err := sub.run(); err != nil {
		return FaultResult{}, fmt.Errorf("simrun: faults %s: %w", sc.Name, err)
	}

	out := FaultResult{
		Clients:  results,
		Served:   log.n,
		Crashes:  trigger.Crashes(),
		Restarts: restarts,
	}
	var span makespan
	for i := range results {
		r := &results[i]
		out.Sessions += r.Resume.Sessions
		out.BusyWaits += r.Resume.BusyWaits
		out.Resumed += r.Resume.ResumedChunks
		out.Dups += r.Resume.DupChunks
		span.add(r.Arrival, r.End)
		if r.Completed && r.ChecksumOK {
			out.Completed++
			out.AggBytes += int64(r.Bytes)
		}
	}
	out.Makespan = span.span()
	return out, nil
}
