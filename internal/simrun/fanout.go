package simrun

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/wire"
)

// FanoutScenario is a one-to-many replication experiment: one source
// distributes the same seeded object to N receivers, either through a
// depth-2 stripe-relay tree (Relays > 0) or as N independent pulls
// (Relays == 0, the baseline the tree is judged against). One orchestration
// runs it on the discrete-event simulator (Run) and over UDP loopback
// (RunUDP), and both return the one FanoutResult.
//
// The tree is the relay shape of ROADMAP item 4: the source blasts each
// stripe of the object exactly once — to the relay that owns it — so the
// source pays ~1× the object in transmitted bytes no matter how many
// receivers there are. Each relay runs a cut-through board
// (session.Board): it serves a stripe chunk to its children the moment the
// chunk lands, while the rest of the stripe is still arriving, and every
// receiver assembles the full object by pulling each stripe from the relay
// that owns it. All hops ride the ordinary session layer (REQ stripe
// fields, PullResume budgets, BUSY/RETRY-AFTER), so a mid-tree failure
// repairs the affected subtree instead of restarting the fan-out.
//
// On the simulator everything runs under one kernel's handoff scheduling,
// so a run is deterministic bit for bit at any GOMAXPROCS — the reference
// the sim==UDP fanout conformance suite holds the sockets to.
type FanoutScenario struct {
	// Name labels the scenario in test output and experiment tables.
	Name string
	// Cost is the simulator hardware model (zero: modern gigabit); RunUDP
	// ignores it.
	Cost params.CostModel
	// N is the number of receivers (default 8).
	N int
	// Relays is the number of stripe relays between the source and the
	// receivers. 0 runs the baseline: every receiver pulls the whole
	// object straight from the source.
	Relays int
	// Bytes is the object size (default 256 KiB).
	Bytes int
	// Chunk is the data packet size (default params.DataPacketSize).
	Chunk int
	// Window splits blasts (default 16).
	Window int
	// Tr is every hop's retransmission timeout (default 100 ms).
	Tr time.Duration
	// Controller names the rate-control policy each pull requests (empty:
	// fixed schedule).
	Controller string
	// Concurrency caps each server's simultaneous sessions (default: room
	// for the whole plan).
	Concurrency int
	// RetryAfter is the servers' BUSY back-off hint (zero: server default).
	RetryAfter time.Duration
	// Arrivals staggers receivers: receiver i sleeps Arrivals[i] before
	// dialing (missing entries arrive at t=0). Relays always start at t=0.
	Arrivals []time.Duration
	// DrainAt, when positive, calls BeginDrain on every server (source and
	// relays) that long into the run: in-flight subtrees complete,
	// latecomers are refused BUSY/RETRY-AFTER.
	DrainAt time.Duration
	// MaxResumes and MaxBusyWaits bound every pull's recovery budget, and
	// Backoff is its initial retry delay (zero: core.ResumeOptions
	// defaults).
	MaxResumes   int
	MaxBusyWaits int
	Backoff      time.Duration
	// Seed drives backoff jitter and the simulated network model.
	Seed int64
}

// withFanoutDefaults fills the zero fields.
func (sc FanoutScenario) withFanoutDefaults() FanoutScenario {
	if sc.N <= 0 {
		sc.N = 8
	}
	if sc.Bytes <= 0 {
		sc.Bytes = 256 << 10
	}
	if sc.Chunk <= 0 {
		sc.Chunk = params.DataPacketSize
	}
	if sc.Window == 0 {
		sc.Window = 16
	}
	if sc.Tr == 0 {
		sc.Tr = 100 * time.Millisecond
	}
	if sc.Concurrency <= 0 {
		sc.Concurrency = sc.N + sc.Relays + 2
	}
	return sc
}

// FanoutReceiverResult is one receiver's end-to-end outcome, all stripe
// sessions folded together.
type FanoutReceiverResult struct {
	Receiver   int
	Arrival    time.Duration
	Start      time.Duration // first stripe REQ issued (the substrate's clock)
	End        time.Duration // last stripe completed
	Elapsed    time.Duration
	Completed  bool
	ChecksumOK bool
	Data       []byte // the assembled payload (nil over UDP without KeepData)
	// Counts sums the receiver's stripe sessions: receiver-side counters
	// net of linger plus the serving sessions' sender-side ones.
	Counts Counts
	Resume core.ResumeStats
	// Busy reports that a stripe surfaced a BUSY refusal after exhausting
	// its busy-wait budget; RetryAfter is the server's hint.
	Busy       bool
	RetryAfter time.Duration
	Err        string
}

// FanoutRelayResult is one relay's uplink outcome.
type FanoutRelayResult struct {
	Relay     int
	Stripe    core.Stripe
	Completed bool
	Counts    Counts
	Resume    core.ResumeStats
	Err       string
}

// FanoutResult reports one fan-out run.
type FanoutResult struct {
	Receivers []FanoutReceiverResult
	Relays    []FanoutRelayResult
	Completed int           // receivers that assembled an intact object
	Makespan  time.Duration // first receiver start to last receiver end
	AggBytes  int64         // payload bytes delivered to intact receivers
	// SourceDataSent counts data packets the source's sessions transmitted
	// — the headline: ~1 object with relays, N objects without.
	SourceDataSent int
	// SourceTxBytes counts wire bytes out of the source station (simulator
	// only: a socket has no interface counters to read).
	SourceTxBytes int64
	Agg           Counts
}

// AggMBps is aggregate delivered payload over the makespan.
func (r FanoutResult) AggMBps() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.AggBytes) / r.Makespan.Seconds() / 1e6
}

// addResume folds one session's resume stats into an aggregate.
func addResume(agg *core.ResumeStats, s core.ResumeStats) {
	agg.Sessions += s.Sessions
	agg.BusyWaits += s.BusyWaits
	agg.ResumedChunks += s.ResumedChunks
	agg.DupChunks += s.DupChunks
}

// fanoutParts returns the stripe plan: the relay stripes, or one
// whole-object "stripe" for the baseline.
func (sc FanoutScenario) fanoutParts() []core.Stripe {
	if sc.Relays > 0 {
		return core.PlanStripes(sc.Bytes, sc.Chunk, sc.Relays)
	}
	return []core.Stripe{{Index: 0, Offset: 0, Bytes: sc.Bytes}}
}

// arrival is when receiver i dials.
func (sc FanoutScenario) arrival(i int) time.Duration {
	if i < len(sc.Arrivals) {
		return sc.Arrivals[i]
	}
	return 0
}

// fanoutHop is one pull of the plan — a relay's uplink or one stripe of one
// receiver: what to pull from whom, then, filled in by the hop's own thread
// of control, how it went.
type fanoutHop struct {
	name  string
	at    host          // the server pulled from
	delay time.Duration // before dialing
	id    uint32
	seed  int64 // backoff jitter
	st    core.Stripe
	sink  core.ChunkSink
	fail  func(error) // when non-nil, told that the pull failed for good

	res        core.RecvResult
	rst        core.ResumeStats
	err        error
	start, end time.Duration
}

// counts joins the hop's receiver-side counters, net of linger, to the
// serving session's sender-side ones.
func (h *fanoutHop) counts(served map[uint32]session.TransferStats) Counts {
	var c Counts
	if h.err == nil {
		c = recvCounts(h.res)
	}
	if ts, ok := served[h.id]; ok {
		c.DataSent += ts.Packets
		c.Retransmits += ts.Retransmits
		c.Timeouts += ts.Timeouts
	}
	return c
}

// Run executes the scenario once on the discrete-event simulator.
// Deterministic — same seed, same bits — at any worker count.
func (sc FanoutScenario) Run() (FanoutResult, error) {
	sc = sc.withFanoutDefaults()
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return FanoutResult{}, err
	}
	res, err := sc.run(w, true)
	if err == nil {
		// The source is the first host the orchestration starts.
		res.SourceTxBytes = w.n.Stations()[0].Counters.TxBytes
	}
	return res, err
}

// RunUDP executes the scenario once over real UDP loopback sockets: an
// in-process source daemon, relay daemons and receivers each on their own
// socket. Times in the result are wall-clock.
func (sc FanoutScenario) RunUDP(u UDP) (FanoutResult, error) {
	return sc.withFanoutDefaults().run(newUDPWorld(u), u.KeepData)
}

// run is the fan-out, written once against the substrate seam: plan the
// stripes; start the source and one board-backed relay server per stripe;
// spawn one uplink pull per relay and N × stripes receiver pulls; run to
// completion; join every hop's counters to its serving session's by
// transfer ID. keep assembles and byte-compares every receiver's payload.
// Setup failures (too many stripes, a socket that cannot bind, a substrate
// that broke) are the returned error; a hop's failure is in its result.
func (sc FanoutScenario) run(sub substrate, keep bool) (FanoutResult, error) {
	parts := sc.fanoutParts()
	if len(parts) > session.FanoutStripeStride {
		// Past the stride two receivers' stripes share a transfer ID and the
		// sender-side join silently credits one with the other's packets.
		return FanoutResult{}, fmt.Errorf("simrun: fanout %s: %d stripes exceed the transfer-ID stride %d",
			sc.Name, len(parts), session.FanoutStripeStride)
	}
	treed := sc.Relays > 0

	// A server's idle bound must outlive arrivals plus service so none
	// quits early; virtual idle only delays the free clock at the end, and
	// a UDP server is closed when the run is over.
	idle := sc.DrainAt + 10*time.Minute
	for _, a := range sc.Arrivals {
		idle += a
	}
	var log servedLog
	var servers []*session.Server
	serve := func(name string, handler func(*session.Server)) (host, error) {
		h, err := sub.serve(name, func(s *session.Server) {
			s.Concurrency = sc.Concurrency
			s.Idle = idle
			s.RetryAfter = sc.RetryAfter
			s.Done = log.done
			handler(s)
			servers = append(servers, s)
		})
		if err != nil {
			err = fmt.Errorf("simrun: fanout %s: %w", sc.Name, err)
		}
		return h, err
	}
	spawn := func(h *fanoutHop) {
		sub.client(h.name, h.at, h.delay, params.Adversary{}, 0, func(env core.Env) {
			cfg := core.Config{
				TransferID:     h.id,
				Bytes:          h.st.Bytes,
				ChunkSize:      sc.Chunk,
				Protocol:       core.Blast,
				Strategy:       core.GoBackN,
				Window:         sc.Window,
				Controller:     sc.Controller,
				RetransTimeout: sc.Tr,
				Sink:           h.sink,
			}
			if treed { // a range of the logical stream; the baseline pulls it whole
				cfg.StripeOffset, cfg.StripeTotal = h.st.Offset, sc.Bytes
			}
			h.start = sub.now()
			h.res, h.rst, h.err = core.PullResume(env, cfg, core.ResumeOptions{
				MaxResumes:   sc.MaxResumes,
				MaxBusyWaits: sc.MaxBusyWaits,
				Backoff:      sc.Backoff,
				Seed:         h.seed,
			})
			h.end = sub.now()
			if h.err != nil && h.fail != nil {
				h.fail(h.err)
			}
		})
	}

	// Hosts, then uplinks, then receivers: the DES creates its stations and
	// processes in exactly this order.
	src, err := serve("source", func(s *session.Server) { s.Source = core.SeededReqSource })
	if err != nil {
		return FanoutResult{}, err
	}
	targets := []host{src} // targets[k] serves stripe k to the receivers
	var uplinks []fanoutHop
	if treed {
		targets = make([]host, len(parts))
		uplinks = make([]fanoutHop, len(parts))
		for ki, st := range parts {
			board := session.NewBoardAt(st.Offset, st.Bytes, sc.Chunk, sub.virtual())
			targets[ki], err = serve(fmt.Sprintf("relay%d", ki), func(s *session.Server) { s.SourceEnv = board.SourceReq })
			if err != nil {
				return FanoutResult{}, err
			}
			// A failed uplink poisons its board: the relay's children unblock
			// and recover through their own resume budgets instead of
			// deadlocking on a dead board.
			uplinks[ki] = fanoutHop{name: fmt.Sprintf("relay%d-up", ki), at: src, id: session.FanoutRelayID(ki),
				seed: sc.Seed + 7000 + int64(ki), st: st, sink: board.Sink(), fail: board.Fail}
		}
		for ki := range uplinks {
			spawn(&uplinks[ki])
		}
	}
	hops := make([][]fanoutHop, sc.N)
	bufs := make([][]byte, sc.N)
	for i := range hops {
		hops[i] = make([]fanoutHop, len(parts))
		if keep {
			bufs[i] = make([]byte, sc.Bytes)
		}
		for ki, st := range parts {
			hops[i][ki] = fanoutHop{name: fmt.Sprintf("recv%d-%d", i, ki), at: targets[ki], delay: sc.arrival(i),
				id: session.FanoutReceiverID(i, ki), seed: sc.Seed + int64(i*session.FanoutStripeStride+ki), st: st,
				// Stripes cover disjoint ranges, so concurrent sinks never
				// overlap; without keep the stripe checksums are the evidence.
				sink: func(off int, b []byte) {
					if keep {
						copy(bufs[i][st.Offset+off:], b)
					}
				}}
			spawn(&hops[i][ki])
		}
	}
	if sc.DrainAt > 0 {
		sub.after(sc.DrainAt, func() {
			for _, s := range servers {
				s.BeginDrain()
			}
		})
	}
	if err := sub.run(); err != nil {
		return FanoutResult{}, fmt.Errorf("simrun: fanout %s: %w", sc.Name, err)
	}

	// Every server has stopped: the log is complete and no longer shared.
	served := log.byID
	expected := core.SeededPayload(int64(sc.Bytes), sc.Bytes, sc.Chunk)
	want := core.TransferChecksum(expected)
	out := FanoutResult{
		Receivers: make([]FanoutReceiverResult, sc.N),
		Relays:    make([]FanoutRelayResult, len(uplinks)),
	}
	for ki := range uplinks {
		h := &uplinks[ki]
		rr := &out.Relays[ki]
		rr.Relay, rr.Stripe, rr.Resume, rr.Counts = ki, h.st, h.rst, h.counts(served)
		if h.err != nil {
			rr.Err = h.err.Error()
		} else {
			rr.Completed = h.res.Completed
		}
		out.SourceDataSent += rr.Counts.DataSent
	}
	var span makespan
	for i := range out.Receivers {
		r := &out.Receivers[i]
		r.Receiver, r.Arrival = i, sc.arrival(i)
		r.Completed = true
		var whole makespan
		var sum wire.SumAcc
		for ki := range hops[i] {
			h := &hops[i][ki]
			whole.add(h.start, h.end)
			addResume(&r.Resume, h.rst)
			if h.err != nil {
				r.Completed = false
				if r.Err == "" {
					r.Err = h.err.Error()
				}
				var busy *core.BusyError
				if errors.As(h.err, &busy) {
					r.Busy = true
					r.RetryAfter = busy.RetryAfter
				}
				continue
			}
			if !h.res.Completed {
				r.Completed = false
			}
			sum.AddChecksumAt(h.st.Offset, h.res.Checksum)
			r.Counts.Add(h.counts(served))
		}
		r.Start, r.End, r.Elapsed = whole.first, whole.last, whole.span()
		r.Data = bufs[i]
		r.ChecksumOK = r.Completed && sum.Sum16() == want && (!keep || bytes.Equal(bufs[i], expected))
		if !treed {
			// Baseline: the source's sessions are the receivers' own.
			out.SourceDataSent += r.Counts.DataSent
		}
		if r.Completed && r.ChecksumOK {
			out.Completed++
			out.AggBytes += int64(sc.Bytes)
			span.add(r.Start, r.End)
		}
		out.Agg.Add(r.Counts)
	}
	out.Makespan = span.span()
	return out, nil
}

// BroadcastResult reports the native-broadcast comparator run.
type BroadcastResult struct {
	Packets  int           // distinct data packets broadcast
	Elapsed  time.Duration // first transmission start to last completion
	AggBytes int64         // payload bytes heard across all receivers
}

// AggMBps is aggregate delivered payload over the broadcast's elapsed time.
func (r BroadcastResult) AggMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.AggBytes) / r.Elapsed.Seconds() / 1e6
}

// RunBroadcast models the paper's native one-to-many lower bound on the
// same hardware model: the source broadcasts each chunk once on the shared
// ether and every station hears it (internal/ether CSMA — one medium
// occupancy regardless of receiver count). No per-receiver reliability, no
// acks: this is the physical floor a relay tree is compared against, not a
// usable protocol on its own.
func (sc FanoutScenario) RunBroadcast() (BroadcastResult, error) {
	sc = sc.withFanoutDefaults()
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return BroadcastResult{}, err
	}
	src := w.n.AddStation("source")
	for i := 0; i < sc.N; i++ {
		w.n.AddStation(fmt.Sprintf("recv%d", i)).SetSink()
	}
	var out BroadcastResult
	w.k.Go("broadcast", func(p *sim.Proc) {
		payload := core.SeededPayload(int64(sc.Bytes), sc.Bytes, sc.Chunk)
		total := (sc.Bytes + sc.Chunk - 1) / sc.Chunk
		t0 := p.Now()
		for seq := 0; seq < total; seq++ {
			lo := seq * sc.Chunk
			hi := lo + sc.Chunk
			if hi > sc.Bytes {
				hi = sc.Bytes
			}
			pkt := &wire.Packet{Type: wire.TypeData, Trans: 1, Seq: uint32(seq), Payload: payload[lo:hi]}
			if seq == total-1 {
				pkt.Flags = wire.FlagLast
			}
			src.SendBroadcast(p, pkt)
			out.Packets++
		}
		out.Elapsed = p.Now() - t0
	})
	if err := w.run(); err != nil {
		return BroadcastResult{}, fmt.Errorf("simrun: broadcast %s: %w", sc.Name, err)
	}
	out.AggBytes = int64(sc.N) * int64(sc.Bytes)
	return out, nil
}
