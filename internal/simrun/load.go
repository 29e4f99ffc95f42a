package simrun

import (
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
)

// LoadScenario is a many-client load experiment: N seeded clients with
// staggered arrivals and a mixed size/strategy workload all pull from one
// sharded server running the shared session layer (internal/session). One
// orchestration runs it on the discrete-event simulator (Run) and over UDP
// loopback (RunUDP). On the simulator the whole thing runs under the
// kernel's handoff scheduling, so scale behaviour that is unmeasurable on a
// real network — session-cap REQ drops, shard contention, many-client
// fairness — reproduces bit for bit at any worker count; with scripted
// adversaries the UDP run must match it counter for counter.
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
	// Adversary, when active, is installed per client (station-scoped, so
	// one client's traffic cannot perturb another's decision stream),
	// client i seeded Seed+i. ClientAdversary overrides it per client.
	Adversary params.Adversary
	// ClientAdversary, when non-nil, returns client i's adversary (an
	// inactive adversary leaves the client clean).
	ClientAdversary func(i int) params.Adversary
	// Seed drives every stochastic choice (sizes, strategies, arrivals,
	// adversaries).
	Seed int64
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
	// session's sender-side ones (DataSent/Retransmits/Timeouts, from the
	// Done hook), so one struct captures the whole conversation.
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

// Run executes the scenario once on the discrete-event simulator: one
// kernel, one sharded server process, N client processes. The result is
// deterministic — same seed, same bits — regardless of GOMAXPROCS, because
// every process runs under the kernel's handoff scheduling.
func (sc LoadScenario) Run() (LoadResult, error) {
	sc = sc.withLoadDefaults()
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return LoadResult{}, err
	}
	res, err := sc.run(w, false)
	if err == nil {
		res.Kernel = w.k.Stats()
	}
	return res, err
}

// RunUDP executes the scenario once over real UDP loopback sockets: an
// in-process server and N clients each on their own socket, adversaries on
// the clients' endpoints. Times in the result are wall-clock; Cost is
// ignored.
func (sc LoadScenario) RunUDP(u UDP) (LoadResult, error) {
	return sc.withLoadDefaults().run(newUDPWorld(u), u.KeepData)
}

// run is the load scenario, written once against the substrate seam. The
// server streams seeded chunks, exactly like blastd: a pull of B bytes is
// generated from seed B, so a client verifies its payload without the
// server materialising it. keep has every client assemble its bytes and
// compare them with the seeded stream.
func (sc LoadScenario) run(sub substrate, keep bool) (LoadResult, error) {
	var log servedLog
	srv, err := sub.serve("server", func(s *session.Server) {
		s.Concurrency = sc.Concurrency
		// Generous enough to outlive the full arrival window plus service;
		// virtual idle only delays the (free) clock at the end, and a UDP
		// server is closed when the run is over.
		s.Idle = sc.Arrival + 5*time.Minute
		s.Source = core.SeededReqSource
		s.Done = log.done
	})
	if err != nil {
		return LoadResult{}, fmt.Errorf("simrun: load %s: %w", sc.Name, err)
	}

	results := make([]LoadClientResult, sc.N)
	want := seededSums(sc.Bytes, sc.Chunk)
	draws := drawClients(sc.Seed*-3751637671895480951+7046029254386353131, sc.N, sc.Bytes, sc.Strategies, sc.Arrival)
	for i, d := range draws {
		r := &results[i]
		r.Client, r.Bytes, r.Strategy, r.Arrival = i, d.bytes, d.strategy, d.arrival
		r.Controller = sc.Controller
		adv := sc.Adversary
		if sc.ClientAdversary != nil {
			adv = sc.ClientAdversary(i)
		}
		r.TransferID = uint32(i + 1)
		sink, intact := seededPull(d.bytes, sc.Chunk, want[d.bytes], keep)
		sub.client(fmt.Sprintf("client%d", i), srv, d.arrival, adv, sc.Seed+int64(i), func(env core.Env) {
			r.Start = sub.now()
			res, err := core.Request(env, core.Config{
				TransferID:     r.TransferID,
				Bytes:          d.bytes,
				ChunkSize:      sc.Chunk,
				Protocol:       core.Blast,
				Strategy:       d.strategy,
				Window:         sc.Window,
				Controller:     r.Controller,
				RetransTimeout: sc.Tr,
				Sink:           sink,
			})
			r.End = sub.now()
			r.Elapsed = r.End - r.Start
			if err != nil {
				r.Err = err.Error()
				return
			}
			r.Completed, r.ChecksumOK = res.Completed, intact(res)
			r.Counts = recvCounts(res)
		})
	}
	if err := sub.run(); err != nil {
		return LoadResult{}, fmt.Errorf("simrun: load %s: %w", sc.Name, err)
	}

	out := LoadResult{Clients: results, Served: log.n}
	var rates []float64
	var span makespan
	for i := range results {
		r := &results[i]
		if ts, ok := log.byID[r.TransferID]; ok {
			r.Counts.DataSent = ts.Packets
			r.Counts.Retransmits = ts.Retransmits
			r.Counts.Timeouts = ts.Timeouts
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
