package simrun

import (
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/transport"
)

// host names a server a substrate started: a simulated station on the DES,
// a socket address over UDP. Only the substrate that issued it reads it.
type host any

// substrate is the seam between the orchestration of a topology and the
// medium it runs on: four operations and the two facts about time an
// orchestration cannot know by itself. FanoutScenario.run is written once
// against it; the DES binding (desWorld) and the UDP binding (udpWorld) are
// substituted for one another by the fan-out conformance suite, which holds
// the two to identical counters.
type substrate interface {
	// serve starts a session server on a fresh host. setup fills in the
	// handlers and limits before the demux loop starts; the orchestration
	// may keep the pointer (BeginDrain).
	serve(name string, setup func(*session.Server)) (host, error)
	// client spawns body in its own thread of control, delay from now, over
	// a fresh conn dialed at the server `at`; a failed dial reaches body as
	// transport.FailedClient. redial replaces the conn where conns die with
	// their session (core.ResumeOptions.Redial) and is nil where they do
	// not. The substrate releases whatever it dialed after body returns.
	client(name string, at host, delay time.Duration, body func(env core.Env, redial func() (core.Env, error)))
	// after runs fn once, d from now, off every client's thread.
	after(d time.Duration, fn func())
	// run lets every client run to completion, stops the servers, and
	// reports the first failure of the substrate itself (a deadlocked
	// kernel, a demux loop that died) — never a transfer's.
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
// order the orchestration asks for them. The single-server scenarios
// (LoadScenario, FaultScenario, DiskLoadScenario) build their worlds from
// the same pieces through listen and fan.
type desWorld struct {
	k      *sim.Kernel
	n      *sim.Network
	srvErr error // first error any demux loop returned
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

// listenOn runs srv's demux loop as a process on st — again, after a crash
// closed and reopened the station.
func (w *desWorld) listenOn(st *sim.Station, srv *session.Server) {
	sim.Serve(w.n, st, func(l *sim.Listener) {
		if err := srv.Run(l); err != nil && w.srvErr == nil {
			w.srvErr = err
		}
	})
}

// listen starts srv on a fresh station.
func (w *desWorld) listen(name string, srv *session.Server) *sim.Station {
	st := w.n.AddStation(name)
	w.listenOn(st, srv)
	return st
}

// fan spawns the orchestrating process of a one-server scenario: n clients,
// each on its own station (prepare, when non-nil, configures it first),
// running body concurrently against server. Bodies record their own errors;
// Fan's error slice would only duplicate them.
func (w *desWorld) fan(name string, server *sim.Station, n int,
	prepare func(i int, st *sim.Station) error, body func(i int, c transport.Client) error) {
	w.k.Go(name, func(p *sim.Proc) {
		f := &sim.Fabric{Net: w.n, Server: server, P: p, Prepare: prepare}
		f.Fan(n, body)
	})
}

func (w *desWorld) serve(name string, setup func(*session.Server)) (host, error) {
	srv := &session.Server{}
	setup(srv)
	return w.listen(name, srv), nil
}

func (w *desWorld) client(name string, at host, delay time.Duration, body func(core.Env, func() (core.Env, error))) {
	st := w.n.AddStation(name)
	w.k.Go(name, func(p *sim.Proc) {
		ep := sim.NewEndpoint(p, st, at.(*sim.Station))
		if delay > 0 {
			ep.SleepFor(delay)
		}
		body(ep, nil) // a simulated conn outlives its sessions
	})
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

// seededSums memoises, for one run, the checksum a pull of a size-seeded
// object (core.SeededReqSource) expects; clients run one at a time.
type seededSums map[int]uint16

func (m seededSums) of(bytes, chunk int) uint16 {
	sum, ok := m[bytes]
	if !ok {
		sum = core.SeededChecksum(int64(bytes), bytes, chunk)
		m[bytes] = sum
	}
	return sum
}
