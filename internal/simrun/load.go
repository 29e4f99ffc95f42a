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
)

// LoadScenario is a DES-backed many-client load experiment: N seeded
// clients with staggered arrivals and a mixed size/strategy workload all
// pull from one sharded simulated server running the shared session layer
// (internal/session) — the same demux loop, session table and handlers
// that serve real UDP traffic. Because the whole thing runs under the
// kernel's handoff scheduling, scale behaviour that is unmeasurable on a
// real network — session-cap REQ drops, shard contention, many-client
// fairness — reproduces bit for bit at any worker count.
type LoadScenario struct {
	// Name labels the scenario in test output and experiment tables.
	Name string
	// Cost is the simulator hardware model; the zero value means the
	// modern-gigabit preset (a load experiment wants a fast fabric).
	Cost params.CostModel
	// N is the number of clients (default 8).
	N int
	// Bytes is the transfer-size mix; each client draws one entry
	// (seeded). Default {64 KB}.
	Bytes []int
	// Strategies is the blast retransmission-strategy mix; each client
	// draws one entry. Default {GoBackN}.
	Strategies []core.Strategy
	// Chunk is the data packet size (default params.DataPacketSize).
	Chunk int
	// Window splits blasts (0: single blast per transfer).
	Window int
	// Tr is the clients' retransmission timeout (default 100 ms virtual).
	Tr time.Duration
	// Arrival staggers the clients: client arrivals are drawn uniformly
	// from [0, Arrival). Zero means everyone arrives at t=0 — the
	// thundering herd.
	Arrival time.Duration
	// Concurrency is the server's session cap (default GOMAXPROCS-like 4);
	// clients beyond it are dropped at REQ time and recover by retrying.
	Concurrency int
	// Controller names the rate-control policy every client's REQ asks the
	// server to drive its blast with (core.Config.Controller → the policy
	// byte of the handshake). Empty means the fixed schedule.
	Controller string
	// ClientController, when non-nil, returns client i's policy name and
	// overrides Controller — a mixed-policy contention experiment (empty:
	// fixed schedule).
	ClientController func(i int) string
	// Adversary, when active, is installed per client (station-scoped, so
	// one client's traffic cannot perturb another's decision stream),
	// client i seeded Seed+i. ClientAdversary overrides it per client.
	Adversary params.Adversary
	// ClientAdversary, when non-nil, returns client i's adversary (an
	// inactive adversary leaves the client clean).
	ClientAdversary func(i int) params.Adversary
	// Seed drives every stochastic choice (sizes, strategies, arrivals,
	// adversaries). Trial t of Sample uses Seed+t.
	Seed int64
	// Trials is the Sample batch size (default 1).
	Trials int
}

// withLoadDefaults fills the zero fields.
func (sc LoadScenario) withLoadDefaults() LoadScenario {
	if sc.N <= 0 {
		sc.N = 8
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
	if sc.Trials <= 0 {
		sc.Trials = 1
	}
	return sc
}

// LoadClientResult is one client's end-to-end outcome.
type LoadClientResult struct {
	Client     int
	TransferID uint32
	Bytes      int
	Strategy   core.Strategy
	Controller string        // rate-control policy the client requested
	Arrival    time.Duration // scheduled arrival (virtual)
	Start      time.Duration // request issued (virtual)
	End        time.Duration // transfer complete (virtual)
	Elapsed    time.Duration // End - Start: queueing + transfer
	Completed  bool
	ChecksumOK bool
	// Counts combines the client's receiver-side counters with the server
	// session's sender-side ones (DataSent/Retransmits, from the Done
	// hook), so one struct captures the whole conversation.
	Counts Counts
	Err    string
}

// MBps is the client's end-to-end virtual throughput.
func (r LoadClientResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// LoadResult reports one load-scenario run.
type LoadResult struct {
	Clients   []LoadClientResult
	Served    int           // transfers the server completed
	Completed int           // clients that finished with an intact payload
	Makespan  time.Duration // first arrival to last completion (virtual)
	AggBytes  int64         // payload bytes delivered across all clients
	Agg       Counts        // summed per-client counts
	// Fairness is Jain's index over completed clients' end-to-end
	// throughputs: 1.0 = perfectly even service, 1/n = one client hogged
	// the server.
	Fairness float64
	// Kernel is the run's exact DES scheduling counts.
	Kernel sim.KernelStats
}

// jain computes Jain's fairness index over xs (1 for empty input).
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// loadClientSpec is one client's pre-drawn workload.
type loadClientSpec struct {
	bytes      int
	strategy   core.Strategy
	controller string
	arrival    time.Duration
	adv        params.Adversary
	advSeed    int64
}

// specs draws every client's workload up front, in index order, so the
// scenario is a pure function of its seed.
func (sc LoadScenario) specs() []loadClientSpec {
	rng := rand.New(rand.NewSource(sc.Seed*-3751637671895480951 + 7046029254386353131))
	out := make([]loadClientSpec, sc.N)
	for i := range out {
		s := &out[i]
		s.bytes = sc.Bytes[rng.Intn(len(sc.Bytes))]
		s.strategy = sc.Strategies[rng.Intn(len(sc.Strategies))]
		if sc.Arrival > 0 {
			s.arrival = time.Duration(rng.Int63n(int64(sc.Arrival)))
		}
		s.controller = sc.Controller
		if sc.ClientController != nil {
			s.controller = sc.ClientController(i)
		}
		s.adv = sc.Adversary
		if sc.ClientAdversary != nil {
			s.adv = sc.ClientAdversary(i)
		}
		s.advSeed = sc.Seed + int64(i)
	}
	return out
}

// Run executes the scenario once: one kernel, one sharded server process,
// N client processes. The result is deterministic — same seed, same bits —
// regardless of GOMAXPROCS, because every process runs under the kernel's
// handoff scheduling.
func (sc LoadScenario) Run() (LoadResult, error) {
	sc = sc.withLoadDefaults()
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return LoadResult{}, err
	}
	specs := sc.specs()

	// The server streams seeded chunks, exactly like blastd: a pull of B
	// bytes is generated from seed B, so the client can verify the payload
	// without the server materialising it.
	serverStats := make(map[uint32]session.TransferStats, sc.N)
	srv := &session.Server{
		Concurrency: sc.Concurrency,
		// Virtual idle: generous enough to outlive the full arrival window
		// plus service; it only delays the (free) virtual clock at the end.
		Idle:   sc.Arrival + 5*time.Minute,
		Source: core.SeededReqSource,
		Done:   func(ts session.TransferStats) { serverStats[ts.TransferID] = ts },
	}
	serverSt := w.listen("server", srv)

	results := make([]LoadClientResult, sc.N)
	want := seededSums{}
	w.fan("load", serverSt, sc.N, func(i int, st *sim.Station) error {
		if !specs[i].adv.Active() {
			return nil
		}
		return st.SetAdversary(specs[i].adv, specs[i].advSeed)
	}, func(i int, c transport.Client) error {
		s := specs[i]
		r := &results[i]
		r.Client, r.Bytes, r.Strategy, r.Arrival = i, s.bytes, s.strategy, s.arrival
		r.Controller = s.controller
		r.TransferID = uint32(i + 1)
		c.Compute(s.arrival) // staggered arrival
		cfg := core.Config{
			TransferID:     r.TransferID,
			Bytes:          s.bytes,
			ChunkSize:      sc.Chunk,
			Protocol:       core.Blast,
			Strategy:       s.strategy,
			Window:         sc.Window,
			Controller:     s.controller,
			RetransTimeout: sc.Tr,
		}
		r.Start = c.Now()
		res, err := core.Request(c, cfg)
		r.End = c.Now()
		r.Elapsed = r.End - r.Start
		if err != nil {
			r.Err = err.Error()
			return err
		}
		r.Completed = res.Completed
		r.ChecksumOK = res.Completed && res.Checksum == want.of(s.bytes, sc.Chunk)
		r.Counts = recvCounts(res)
		return nil
	})
	if err := w.run(); err != nil {
		return LoadResult{}, fmt.Errorf("simrun: load %s: %w", sc.Name, err)
	}

	out := LoadResult{Clients: results, Served: srv.Served(), Kernel: w.k.Stats()}
	var rates []float64
	var span makespan
	for i := range results {
		r := &results[i]
		if ts, ok := serverStats[r.TransferID]; ok {
			r.Counts.DataSent = ts.Packets
			r.Counts.Retransmits = ts.Retransmits
		}
		span.add(r.Arrival, r.End)
		out.Agg.Add(r.Counts)
		if r.Completed && r.ChecksumOK {
			out.Completed++
			out.AggBytes += int64(r.Bytes)
			if r.Elapsed > 0 {
				rates = append(rates, r.MBps())
			}
		}
	}
	out.Makespan = span.span()
	out.Fairness = jain(rates)
	return out, nil
}

// LoadStats merges a batch of independent seeded load trials, folded
// strictly in trial-index order so the result is bit-identical at any
// worker count.
type LoadStats struct {
	Trials    int
	Makespan  stats.Durations
	Served    int64
	Completed int64
	DataSent  int64
	Retrans   int64
	// FairnessMean averages Jain's index across trials.
	FairnessMean float64
}

// Sample runs the scenario's Trials independent instances (trial t seeded
// Seed+t) fanned across workers (0 or negative: GOMAXPROCS via the same
// convention as SampleWorkers), merging in index order.
func (sc LoadScenario) Sample(workers int) (LoadStats, error) {
	sc = sc.withLoadDefaults()
	if sc.ClientAdversary != nil || sc.ClientController != nil || sc.Adversary.Script != nil {
		workers = 1 // callback hooks are not goroutine-safe
	}
	results := make([]LoadResult, sc.Trials)
	err := Pool(sc.Trials, workers, func(_, t int) (err error) {
		s := sc
		s.Seed = sc.Seed + int64(t)
		results[t], err = s.Run()
		return err
	})
	var agg LoadStats
	if err != nil {
		return agg, err
	}
	var fairSum float64
	for _, r := range results {
		agg.Trials++
		agg.Makespan.Add(r.Makespan)
		agg.Served += int64(r.Served)
		agg.Completed += int64(r.Completed)
		agg.DataSent += int64(r.Agg.DataSent)
		agg.Retrans += int64(r.Agg.Retransmits)
		fairSum += r.Fairness
	}
	if agg.Trials > 0 {
		agg.FairnessMean = fairSum / float64(agg.Trials)
	}
	return agg, nil
}
