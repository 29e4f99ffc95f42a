package simrun

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/transport"
)

// host names a server a substrate started: a station and its server on the
// DES (desHost), an address and its setup over UDP (udpHost). Only the
// substrate that issued it reads it.
type host any

// substrate is the seam between the orchestration of a topology and the
// medium it runs on: five operations and the two facts about time an
// orchestration cannot know by itself. Every scenario with servers and
// clients is written once against it — FanoutScenario, LoadScenario and
// FaultScenario run on the DES binding (desWorld) and the UDP binding
// (udpWorld) alike, and DiskLoadScenario, whose store waits on the virtual
// clock, on the DES binding alone. The conformance suites substitute one
// binding for the other and hold the two to identical counters.
type substrate interface {
	// serve starts a session server on a fresh host. setup fills in the
	// handlers and limits before the demux loop starts; the orchestration
	// may keep the pointer (BeginDrain). A restart after a crash runs setup
	// again where the substrate builds a fresh server.
	serve(name string, setup func(*session.Server)) (host, error)
	// client spawns body in its own thread of control, delay from now, over
	// a fresh conn dialed at the server `at`; a failed dial reaches body as
	// transport.FailedClient. An active adv is installed on the client's
	// conn, seeded seed. The conn outlives the body's sessions: a resume is
	// a new transfer on it. The substrate releases whatever it dialed after
	// body returns.
	client(name string, at host, delay time.Duration, adv params.Adversary, seed int64,
		body func(env core.Env))
	// crash kills the server at h — its demux loop and every in-flight
	// session die as a crashed process's would — and restarts it on the
	// same address after downtime, with an empty receive queue. It reports
	// false, doing nothing, when h is already down. A restart that fails is
	// run's error.
	crash(h host, downtime time.Duration) bool
	// after runs fn once, d from now, off every client's thread.
	after(d time.Duration, fn func())
	// run lets every client run to completion, stops the servers, and
	// reports the first failure of the substrate itself (a deadlocked
	// kernel, a demux loop that died, a restart that could not rebind) —
	// never a transfer's.
	run() error

	// now reads the one clock all of the substrate's clients share.
	now() time.Duration
	// virtual reports that time is simulated: code that must block (a relay
	// board's readers) polls the virtual clock instead of a condition
	// variable.
	virtual() bool
}

// desWorld is the DES binding: one kernel, one network, every server a
// station with its own demux process, every client a station with its own
// process, all under handoff scheduling — so whatever is orchestrated on it
// is deterministic bit for bit. Stations and processes are created in the
// order the orchestration asks for them.
type desWorld struct {
	k      *sim.Kernel
	n      *sim.Network
	srvErr error // first error any demux loop returned
}

// desHost is a DES server: the station it serves on and the server a crash
// restarts there.
type desHost struct {
	st  *sim.Station
	srv *session.Server
}

// newDESWorld builds an empty world; a zero cost model means the
// modern-gigabit preset (a many-host experiment wants a fast fabric).
func newDESWorld(cost params.CostModel, seed int64) (*desWorld, error) {
	if cost.BandwidthBitsPerSec == 0 {
		cost = params.ModernGigabit()
	}
	k := sim.NewKernel()
	n, err := sim.NewNetwork(k, cost, params.LossModel{}, seed)
	if err != nil {
		return nil, err
	}
	return &desWorld{k: k, n: n}, nil
}

// demux runs h's server as a process on h's station.
func (w *desWorld) demux(h *desHost) {
	sim.Serve(w.n, h.st, func(l *sim.Listener) {
		if err := h.srv.Run(l); err != nil && w.srvErr == nil {
			w.srvErr = err
		}
	})
}

func (w *desWorld) serve(name string, setup func(*session.Server)) (host, error) {
	h := &desHost{st: w.n.AddStation(name), srv: &session.Server{}}
	setup(h.srv)
	w.demux(h)
	return h, nil
}

func (w *desWorld) client(name string, at host, delay time.Duration, adv params.Adversary, seed int64,
	body func(core.Env)) {
	st := w.n.AddStation(name)
	err := st.SetAdversary(adv, seed)
	w.k.Go(name, func(p *sim.Proc) {
		if err != nil {
			body(transport.FailedClient(err))
			return
		}
		ep := sim.NewEndpoint(p, st, at.(*desHost).st)
		if delay > 0 {
			ep.SleepFor(delay)
		}
		body(ep)
	})
}

// crash closes the station — the demux loop and every in-flight session
// die with net.ErrClosed — and a kernel timer restarts the same server on it
// after the downtime, receive queue flushed (a real crash loses its socket
// buffers).
func (w *desWorld) crash(at host, downtime time.Duration) bool {
	h := at.(*desHost)
	if h.st.Closed() {
		return false
	}
	h.st.Close()
	w.k.After(downtime, func() {
		h.st.FlushRx()
		h.st.Reopen()
		w.demux(h)
	})
	return true
}

func (w *desWorld) after(d time.Duration, fn func()) { w.k.After(d, fn) }

func (w *desWorld) run() error {
	if err := w.k.Run(); err != nil {
		return err
	}
	if w.srvErr != nil {
		return fmt.Errorf("server: %w", w.srvErr)
	}
	return nil
}

func (w *desWorld) now() time.Duration { return w.k.Now() }

func (w *desWorld) virtual() bool { return true }

// servedLog is a scenario's servers' Done hook: every completed transfer's
// stats by transfer ID, and how many there were. UDP sessions finish on
// their own goroutines; read it after run.
type servedLog struct {
	mu   sync.Mutex
	byID map[uint32]session.TransferStats
	n    int
}

func (l *servedLog) done(ts session.TransferStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byID == nil {
		l.byID = make(map[uint32]session.TransferStats)
	}
	l.byID[ts.TransferID] = ts
	l.n++
}

// makespan folds client intervals into the distance from the earliest start
// to the latest end (zero when nothing was added).
type makespan struct {
	first, last time.Duration
	set         bool
}

func (m *makespan) add(start, end time.Duration) {
	if !m.set || start < m.first {
		m.first = start
	}
	if end > m.last {
		m.last = end
	}
	m.set = true
}

func (m makespan) span() time.Duration { return m.last - m.first }

// seededSums maps each size in sizes to the checksum a pull of that
// size-seeded object (core.SeededReqSource) must arrive with.
func seededSums(sizes []int, chunk int) map[int]uint16 {
	m := make(map[int]uint16, len(sizes))
	for _, n := range sizes {
		if _, ok := m[n]; !ok {
			m[n] = core.SeededChecksum(int64(n), n, chunk)
		}
	}
	return m
}

// seededPull is the sink a client pulling n bytes of a size-seeded object
// streams through, and the verdict on what arrived: the checksum is want,
// and with keep the bytes the sink assembled are the seeded stream.
// Without keep the sink holds nothing.
func seededPull(n, chunk int, want uint16, keep bool) (core.ChunkSink, func(core.RecvResult) bool) {
	if !keep {
		return func(int, []byte) {}, func(res core.RecvResult) bool { return res.Completed && res.Checksum == want }
	}
	buf := make([]byte, n)
	return func(off int, b []byte) { copy(buf[off:], b) }, func(res core.RecvResult) bool {
		return res.Completed && res.Checksum == want && bytes.Equal(buf, core.SeededPayload(int64(n), n, chunk))
	}
}

// clientDraw is one client's seeded workload: transfer size, blast strategy
// and arrival offset.
type clientDraw struct {
	bytes    int
	strategy core.Strategy
	arrival  time.Duration
}

// drawClients draws n clients' workloads up front, in index order, from an
// rng seeded seed — so a scenario is a pure function of its seed. Arrivals
// are uniform over [0, arrival).
func drawClients(seed int64, n int, sizes []int, strategies []core.Strategy, arrival time.Duration) []clientDraw {
	rng := rand.New(rand.NewSource(seed))
	out := make([]clientDraw, n)
	for i := range out {
		out[i].bytes = sizes[rng.Intn(len(sizes))]
		out[i].strategy = strategies[rng.Intn(len(strategies))]
		if arrival > 0 {
			out[i].arrival = time.Duration(rng.Int63n(int64(arrival)))
		}
	}
	return out
}
