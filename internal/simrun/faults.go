package simrun

import (
	"fmt"
	"math/rand"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/stats"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// FaultScenario is a DES-backed failure-recovery experiment: N seeded
// clients pull from one sharded simulated server while a params.Faults
// schedule kills and restarts the server mid-transfer (and optionally
// blackholes a client's receive path). Clients run the resumable-pull
// engine (core.PullResume), so every client is expected to complete with an
// intact checksum despite the crashes — and because crashes trigger on the
// deterministic count of served chunks and everything runs under the
// kernel's handoff scheduling, the entire recovery schedule (which sessions
// die, at which chunk, how each client backs off and resumes) reproduces
// bit for bit at any worker count.
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
	// backoff jitter). Trial t of Sample uses Seed+t.
	Seed int64
	// Trials is the Sample batch size (default 1).
	Trials int
}

// withFaultDefaults fills the zero fields.
func (sc FaultScenario) withFaultDefaults() FaultScenario {
	if sc.N <= 0 {
		sc.N = 4
	}
	if len(sc.Bytes) == 0 {
		sc.Bytes = []int{64 << 10}
	}
	if len(sc.Strategies) == 0 {
		sc.Strategies = []core.Strategy{core.GoBackN}
	}
	if sc.Chunk == 0 {
		sc.Chunk = params.DataPacketSize
	}
	if sc.Tr == 0 {
		sc.Tr = 100 * time.Millisecond
	}
	if sc.Concurrency <= 0 {
		sc.Concurrency = 4
	}
	if sc.Backoff <= 0 {
		sc.Backoff = 20 * time.Millisecond
	}
	if sc.Trials <= 0 {
		sc.Trials = 1
	}
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

// faultClientSpec is one client's pre-drawn workload.
type faultClientSpec struct {
	bytes    int
	strategy core.Strategy
	arrival  time.Duration
}

// specs draws every client's workload up front, in index order, so the
// scenario is a pure function of its seed.
func (sc FaultScenario) specs() []faultClientSpec {
	rng := rand.New(rand.NewSource(sc.Seed*-8296271519245169997 + 3751637671895480951))
	out := make([]faultClientSpec, sc.N)
	for i := range out {
		s := &out[i]
		s.bytes = sc.Bytes[rng.Intn(len(sc.Bytes))]
		s.strategy = sc.Strategies[rng.Intn(len(sc.Strategies))]
		if sc.Arrival > 0 {
			s.arrival = time.Duration(rng.Int63n(int64(sc.Arrival)))
		}
	}
	return out
}

// Run executes the scenario once: one kernel, a restartable server process,
// N resumable-client processes. Deterministic — same seed, same bits — at
// any GOMAXPROCS.
func (sc FaultScenario) Run() (FaultResult, error) {
	sc = sc.withFaultDefaults()
	if err := sc.Faults.Validate(); err != nil {
		return FaultResult{}, err
	}
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return FaultResult{}, err
	}
	specs := sc.specs()
	trigger := sc.Faults.Trigger()

	restarts := 0
	srv := &session.Server{
		Concurrency: sc.Concurrency,
		RetryAfter:  sc.RetryAfter,
		Idle:        sc.Arrival + 5*time.Minute,
		// Reap orphaned sessions fast: after a crash the old incarnation's
		// session bodies must release their processes in bounded virtual
		// time, not the 30s wall-clock default.
		SessionIdle: 2 * time.Second,
	}
	// The server streams seeded chunks (like blastd); the crash trigger
	// rides the source, so "crash after the Nth served chunk" counts every
	// chunk that crosses any session, deterministically. The crash closes
	// the serving station — the demux loop and every in-flight session die
	// with net.ErrClosed — and a kernel timer restarts the server after the
	// scheduled downtime on the same station, receive queue flushed (a real
	// crash loses its socket buffers).
	var crash func()
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
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
	serverSt := w.listen("server", srv)
	crash = func() {
		if serverSt.Closed() {
			return
		}
		serverSt.Close()
		restarts++
		w.after(sc.Faults.RestartDelay(), func() {
			serverSt.FlushRx()
			serverSt.Reopen()
			w.listenOn(serverSt, srv)
		})
	}

	blackhole := sc.Faults.BlackholeHook()
	results := make([]FaultClientResult, sc.N)
	want := seededSums{}
	w.fan("faultload", serverSt, sc.N, func(i int, st *sim.Station) error {
		if i != 0 || blackhole == nil {
			return nil
		}
		// Client 0 goes dark for a stretch of its receive stream.
		return st.SetAdversary(params.Adversary{Script: blackhole}, sc.Seed)
	}, func(i int, c transport.Client) error {
		s := specs[i]
		r := &results[i]
		r.Client, r.Bytes, r.Strategy, r.Arrival = i, s.bytes, s.strategy, s.arrival
		r.TransferID = uint32(i + 1)
		c.Compute(s.arrival)
		cfg := core.Config{
			TransferID:     r.TransferID,
			Bytes:          s.bytes,
			ChunkSize:      sc.Chunk,
			Protocol:       core.Blast,
			Strategy:       s.strategy,
			Window:         sc.Window,
			RetransTimeout: sc.Tr,
			// One REQ round per session: a quiet server means the session
			// is dead and recovery belongs to the resume layer's offset
			// REQs — an in-session REQ retry would re-request the full
			// range and re-receive verified chunks.
			MaxAttempts: 1,
		}
		r.Start = c.Now()
		res, rstats, err := core.PullResume(c, cfg, core.ResumeOptions{
			MaxResumes:   sc.MaxResumes,
			MaxBusyWaits: sc.MaxBusyWaits,
			Backoff:      sc.Backoff,
			Seed:         sc.Seed + int64(i),
		})
		r.End = c.Now()
		r.Elapsed = r.End - r.Start
		r.Resume = rstats
		r.DataRecv = res.DataPackets - res.Duplicates - res.LingerEvents
		if err != nil {
			r.Err = err.Error()
			return err
		}
		r.Completed = res.Completed
		r.ChecksumOK = res.Completed && res.Checksum == want.of(s.bytes, sc.Chunk)
		return nil
	})
	if err := w.run(); err != nil {
		return FaultResult{}, fmt.Errorf("simrun: faults %s: %w", sc.Name, err)
	}

	out := FaultResult{
		Clients:  results,
		Served:   srv.Served(),
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

// FaultStats merges a batch of independent seeded fault trials, folded in
// trial-index order so the result is bit-identical at any worker count.
type FaultStats struct {
	Trials    int
	Makespan  stats.Durations
	Completed int64
	Crashes   int64
	Sessions  int64
	BusyWaits int64
	Resumed   int64
	Dups      int64
}

// Sample runs the scenario's Trials independent instances (trial t seeded
// Seed+t) fanned across workers (0 or negative: GOMAXPROCS), merging in
// index order.
func (sc FaultScenario) Sample(workers int) (FaultStats, error) {
	sc = sc.withFaultDefaults()
	results := make([]FaultResult, sc.Trials)
	err := Pool(sc.Trials, workers, func(_, t int) (err error) {
		s := sc
		s.Seed = sc.Seed + int64(t)
		results[t], err = s.Run()
		return err
	})
	var agg FaultStats
	if err != nil {
		return agg, err
	}
	for _, r := range results {
		agg.Trials++
		agg.Makespan.Add(r.Makespan)
		agg.Completed += int64(r.Completed)
		agg.Crashes += int64(r.Crashes)
		agg.Sessions += int64(r.Sessions)
		agg.BusyWaits += int64(r.BusyWaits)
		agg.Resumed += int64(r.Resumed)
		agg.Dups += int64(r.Dups)
	}
	return agg, nil
}
