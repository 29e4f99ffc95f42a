package simrun

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/disk"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/store"
	"blastlan/internal/wire"
)

// LoadScenario is the many-client experiment: N seeded clients with
// staggered arrivals and a mixed size/strategy workload all pull from one
// sharded server running the shared session layer (internal/session). Each
// row puts one bottleneck in front of the same clients:
//
//   - the session cap, shard contention and fairness of a plain load;
//   - overload: a small Concurrency and a large N, with Resume giving every
//     refused client a deep BUSY budget;
//   - faults: the server crashes and restarts mid-transfer, or client 0's
//     receive path goes dark (Faults), and clients recover through Resume;
//   - the disk: the server serves store objects off a modelled disk (Disk),
//     and each client stats its object, then pulls it by name.
//
// One orchestration runs every row on the discrete-event simulator (Run)
// and, except a disk row, over UDP loopback (RunUDP). On the simulator the
// whole thing runs under the kernel's handoff scheduling, so what is
// unmeasurable on a real network — BUSY refusals at the cap, shard
// contention, which session a crash kills at which chunk — reproduces bit
// for bit at any worker count; with scripted adversaries the UDP run must
// match it counter for counter.
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
	// Concurrency is the server's session cap (default 4). A REQ beyond it
	// is answered BUSY with a RETRY-AFTER hint, and the client sleeps the
	// hint before it asks again.
	Concurrency int
	// RetryAfter overrides the server's BUSY hint (0: the server default).
	RetryAfter time.Duration
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
	// Faults is the failure schedule: server crashes on the cumulative
	// count of served chunks (the trigger wraps whatever source the server
	// has), the restart downtime, and a receive blackhole that replaces
	// client 0's adversary script.
	Faults params.Faults
	// Resume, when non-nil, has every client pull through core.PullResume
	// with these options, one REQ round per session and client i's jitter
	// seeded Seed+i. Nil keeps the single core.Request.
	Resume *core.ResumeOptions
	// Disk, when non-nil, puts the server's objects on this modelled disk
	// behind the extent cache of internal/store (Sim mode: each miss is one
	// extent-sized read charged to the virtual clock), one object per size
	// in Bytes. Each client stats its object, then pulls it by name.
	Disk *disk.Geometry
	// CacheBytes is a disk row's hot-object cache budget (0: store
	// default). Size it below the objects to watch CLOCK eviction.
	CacheBytes int64
	// Seed drives every stochastic choice (sizes, strategies, arrivals,
	// adversaries, backoff jitter).
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

// ClientResult is one client's end-to-end outcome in a many-client
// scenario: a LoadScenario client, or a FanoutScenario receiver (every
// stripe it pulled folded together) or relay uplink.
type ClientResult struct {
	Client     int
	TransferID uint32
	Bytes      int
	Strategy   core.Strategy
	Controller string        // rate-control policy the client requested
	Arrival    time.Duration // scheduled arrival
	Start      time.Duration // first request issued (the substrate's clock)
	End        time.Duration // last pull complete
	Elapsed    time.Duration // End - Start: queueing + transfer
	Completed  bool
	ChecksumOK bool
	// Counts joins the client's receiver-side counters, net of linger, to
	// the sender-side ones (DataSent, Retransmits, Timeouts) of every
	// session that served it, so one struct captures the whole
	// conversation. DataRecv - Duplicates is the distinct data arrivals.
	Counts Counts
	// Resume is the recovery ledger: sessions issued, BUSY waits honored,
	// chunks re-requested, duplicate arrivals discarded.
	Resume core.ResumeStats
	// Busy reports that a pull surfaced a BUSY refusal after its busy-wait
	// budget ran out; RetryAfter is the server's hint.
	Busy       bool
	RetryAfter time.Duration
	Data       []byte // a fan-out receiver's assembled payload (kept data only)
	Err        string
}

// MBps is the client's end-to-end throughput.
func (r ClientResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// pulled is one pull's outcome, filled in by the client's own thread of
// control: what its receiver and resume layer reported, and when.
type pulled struct {
	id         uint32
	res        core.RecvResult
	rst        core.ResumeStats
	err        error
	start, end time.Duration
}

// join folds a client's pulls into r once every server has stopped: each
// pull's receiver-side counters net of linger (when it succeeded), the
// sender-side counters of every session that served it (the first ask and
// each resume, id + k<<24), its resume ledger and its error. r completed
// when every pull did.
func (r *ClientResult) join(served map[uint32]session.TransferStats, ps ...pulled) {
	r.Completed = true
	var span makespan
	for _, p := range ps {
		span.add(p.start, p.end)
		r.Resume.Add(p.rst)
		for k := 0; k == 0 || k < p.rst.Sessions; k++ {
			if ts, ok := served[p.id+uint32(k)<<24]; ok {
				r.Counts.DataSent += ts.Packets
				r.Counts.Retransmits += ts.Retransmits
				r.Counts.Timeouts += ts.Timeouts
			}
		}
		if p.err != nil {
			r.Completed = false
			if r.Err == "" {
				r.Err = p.err.Error()
			}
			var busy *core.BusyError
			if errors.As(p.err, &busy) {
				r.Busy, r.RetryAfter = true, busy.RetryAfter
			}
			continue
		}
		r.Completed = r.Completed && p.res.Completed
		r.Counts.Add(recvCounts(p.res))
	}
	r.Start, r.End, r.Elapsed = span.first, span.last, span.span()
}

// LoadResult reports one load-scenario run.
type LoadResult struct {
	Clients   []ClientResult
	Served    int           // transfers the server completed, across incarnations
	Completed int           // clients that finished with an intact payload
	Makespan  time.Duration // first arrival to last completion
	AggBytes  int64         // payload bytes delivered across all clients
	Agg       Counts        // summed per-client counts
	Resume    core.ResumeStats
	Crashes   int // scheduled crashes that fired
	Restarts  int // server incarnations beyond the first
	// Fairness is Jain's index over completed clients' end-to-end
	// throughputs: 1.0 = perfectly even service, 1/n = one client hogged
	// the server.
	Fairness float64
	// Store is a disk row's store counters after the run. With a cache at
	// least object-sized, ReadOps is the objects' extent count no matter
	// how many clients pulled: one pass over the platter for the fleet.
	Store store.Stats
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
// kernel, one sharded (and, under Faults, restartable) server process, N
// client processes. The result is deterministic — same seed, same bits —
// regardless of GOMAXPROCS, because every process runs under the kernel's
// handoff scheduling.
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
// the clients' endpoints. A crash closes the server's socket under its
// sessions and a fresh server rebinds the address after the downtime;
// clients resume on the socket they have. Times in the result are
// wall-clock; Cost is ignored. A disk row is refused: the store's Sim mode
// charges its reads to a virtual clock that sockets do not have.
func (sc LoadScenario) RunUDP(u UDP) (LoadResult, error) {
	if sc.Disk != nil {
		return LoadResult{}, fmt.Errorf("simrun: load %s: a disk row runs on the simulator only: "+
			"the store's Sim mode charges its reads to the virtual clock", sc.Name)
	}
	return sc.withLoadDefaults().run(newUDPWorld(u), u.KeepData)
}

// run is the load scenario, written once against the substrate seam. The
// server streams seeded chunks, exactly like blastd: a pull of B bytes is
// generated from seed B, so a client verifies its payload without the
// server materialising it (a disk row's objects hold the same streams).
// keep has every client assemble its bytes and compare them with the
// seeded stream.
func (sc LoadScenario) run(sub substrate, keep bool) (LoadResult, error) {
	if err := sc.Faults.Validate(); err != nil {
		return LoadResult{}, err
	}
	src := func(r wire.Req, _ core.Env) (core.ChunkSource, bool) { return core.SeededReqSource(r) }
	gen := sc.Chunk // the chunk size the served streams are generated at
	var st *store.Store
	if sc.Disk != nil {
		fs := store.NewSimFS(*sc.Disk)
		for _, n := range sc.Bytes {
			fs.Add(object(n), int64(n), n)
		}
		st = store.New(fs, store.Options{Sim: true, CacheBytes: sc.CacheBytes})
		src, gen = st.SourceReq, store.SimChunk
	}
	// The crash trigger rides the source, so "crash after the Nth served
	// chunk" counts every chunk that crosses any session — deterministically
	// on the simulator.
	var crashes *crasher
	if len(sc.Faults.CrashAfterChunks) > 0 {
		crashes = &crasher{sub: sub, trigger: sc.Faults.Trigger(), downtime: sc.Faults.RestartDelay()}
		src = crashes.wrap(src)
	}
	var log servedLog
	srv, err := sub.serve("server", func(s *session.Server) {
		s.Concurrency = sc.Concurrency
		s.RetryAfter = sc.RetryAfter
		// Generous enough to outlive the full arrival window plus service;
		// virtual idle only delays the (free) clock at the end, and a UDP
		// server is closed when the run is over.
		s.Idle = sc.Arrival + 5*time.Minute
		// Reap orphaned sessions fast: after a crash the old incarnation's
		// session bodies must release their threads in bounded time.
		s.SessionIdle = 2 * time.Second
		s.SourceEnv = src
		if st != nil {
			s.Stat = st.StatReq
		}
		s.Done = log.done
	})
	if err != nil {
		return LoadResult{}, fmt.Errorf("simrun: load %s: %w", sc.Name, err)
	}
	if crashes != nil {
		crashes.mu.Lock()
		crashes.srv = srv
		crashes.mu.Unlock()
	}

	blackhole := sc.Faults.BlackholeHook()
	results := make([]ClientResult, sc.N)
	pulls := make([]pulled, sc.N)
	want := seededSums(sc.Bytes, gen)
	// Every client's size, strategy and arrival come from one rng, in index
	// order, so a scenario is a pure function of its seed.
	rng := rand.New(rand.NewSource(sc.Seed*-3751637671895480951 + 7046029254386353131))
	for i := range results {
		r, p := &results[i], &pulls[i]
		r.Client, r.TransferID, r.Controller = i, uint32(i+1), sc.Controller
		r.Bytes = sc.Bytes[rng.Intn(len(sc.Bytes))]
		r.Strategy = sc.Strategies[rng.Intn(len(sc.Strategies))]
		if sc.Arrival > 0 {
			r.Arrival = time.Duration(rng.Int63n(int64(sc.Arrival)))
		}
		p.id = r.TransferID
		adv := sc.Adversary
		if sc.ClientAdversary != nil {
			adv = sc.ClientAdversary(i)
		}
		if i == 0 && blackhole != nil {
			adv.Script = blackhole // client 0 goes dark for a stretch of its receive stream
		}
		sink, intact := seededPull(r.Bytes, gen, want[r.Bytes], keep)
		sub.client(fmt.Sprintf("client%d", i), srv, r.Arrival, adv, sc.Seed+int64(i), func(env core.Env) {
			p.start = sub.now()
			p.res, p.rst, p.err = sc.request(env, core.Config{
				TransferID:     p.id,
				Bytes:          r.Bytes,
				ChunkSize:      sc.Chunk,
				Protocol:       core.Blast,
				Strategy:       r.Strategy,
				Window:         sc.Window,
				Controller:     r.Controller,
				RetransTimeout: sc.Tr,
				Sink:           sink,
			}, i)
			p.end = sub.now()
			r.ChecksumOK = p.err == nil && intact(p.res)
		})
	}
	if err := sub.run(); err != nil {
		return LoadResult{}, fmt.Errorf("simrun: load %s: %w", sc.Name, err)
	}

	out := LoadResult{Clients: results, Served: log.n}
	if crashes != nil {
		out.Crashes, out.Restarts = crashes.trigger.Crashes(), crashes.restarts
	}
	if st != nil {
		out.Store = st.Stats()
	}
	var rates []float64
	var span makespan
	for i := range results {
		r := &results[i]
		r.join(log.byID, pulls[i])
		span.add(r.Arrival, r.End)
		out.Agg.Add(r.Counts)
		out.Resume.Add(r.Resume)
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

// object names a disk row's object of n bytes.
func object(n int) string { return strconv.Itoa(n) + ".bin" }

// request is client i's conversation: on a disk row a stat of its object
// and a pull by name, with Resume a resumable pull, else one core.Request.
func (sc LoadScenario) request(env core.Env, cfg core.Config, i int) (core.RecvResult, core.ResumeStats, error) {
	if sc.Disk != nil {
		cfg.Name = object(cfg.Bytes)
		size, err := core.Stat(env, cfg, cfg.Name)
		if err != nil {
			return core.RecvResult{}, core.ResumeStats{}, fmt.Errorf("stat: %w", err)
		}
		cfg.Bytes = int(size)
	}
	if sc.Resume == nil {
		res, err := core.Request(env, cfg)
		return res, core.ResumeStats{}, err
	}
	opts := *sc.Resume
	opts.Seed = sc.Seed + int64(i)
	// One REQ round per session: a quiet server means the session is dead
	// and recovery belongs to the resume layer's offset REQs — an
	// in-session REQ retry would re-request the full range and re-receive
	// verified chunks.
	cfg.MaxAttempts = 1
	return core.PullResume(env, cfg, opts)
}

// crasher kills and restarts a scenario's server on its crash schedule.
type crasher struct {
	sub      substrate
	trigger  *params.CrashTrigger
	downtime time.Duration

	mu       sync.Mutex // UDP sessions crash the server on their own goroutines
	srv      host
	restarts int
}

// wrap returns src with every served chunk counted against the schedule.
func (c *crasher) wrap(src func(wire.Req, core.Env) (core.ChunkSource, bool)) func(wire.Req, core.Env) (core.ChunkSource, bool) {
	return func(r wire.Req, env core.Env) (core.ChunkSource, bool) {
		chunks, ok := src(r, env)
		if !ok {
			return nil, false
		}
		return func(seq int, dst []byte) []byte {
			if c.trigger.OnChunk() {
				c.mu.Lock()
				if c.sub.crash(c.srv, c.downtime) {
					c.restarts++
				}
				c.mu.Unlock()
			}
			return chunks(seq, dst)
		}, true
	}
}
