package simrun

import (
	"bytes"
	"fmt"
	"net"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/udplan"
	"blastlan/internal/vkernel"
)

// Scenario is one declarative hostile-network experiment: a transfer
// contract, the adversary it must survive, and a trial budget. The same
// scenario definition runs on all three substrates — the discrete-event
// simulator (RunSim, Sample), the V kernel (RunVKernel) and real UDP
// loopback sockets (RunUDP) — which is what lets the conformance suite
// assert that one seeded mangling script produces identical protocol
// behaviour everywhere.
type Scenario struct {
	// Name labels the scenario in test output and experiment tables.
	Name string
	// Cost is the simulator hardware model; the zero value means the
	// standalone §2.1 preset. Ignored by RunUDP (real time is real).
	Cost params.CostModel
	// Adversary is the hostile-network model (see params.Adversary).
	Adversary params.Adversary
	// Config is the two-sided transfer contract. Cross-substrate runs
	// (RunVKernel, RunUDP) need Config.Payload set: real substrates move
	// real bytes. Timeouts should be wall-clock sized — virtual time is
	// free, so one Config works on every substrate.
	Config core.Config
	// Trials is the Sample batch size (default 1).
	Trials int
	// Seed seeds trial 0; trial i uses Seed+i. The single-shot runners use
	// Seed directly.
	Seed int64
	// Batch, when > 1, runs RunUDP over the batched syscall datapath
	// (frame rings of this size) on both endpoints. Ignored by the
	// virtual-time substrates. The conformance suite pins that every batch
	// size produces identical protocol behaviour.
	Batch int
	// Tier, when non-zero, caps the batched datapath tier RunUDP probes up
	// to (udplan.Endpoint.MaxTier): the GSO conformance suite pins that the
	// same scenario script behaves identically whether frames ride
	// UDP_SEGMENT superbuffers, sendmmsg batches or WriteTo loops.
	Tier udplan.Tier
}

// withDefaults fills the zero fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Cost.BandwidthBitsPerSec == 0 {
		sc.Cost = params.Standalone3Com()
	}
	if sc.Trials <= 0 {
		sc.Trials = 1
	}
	return sc
}

// Options projects the scenario onto simulator options for one trial.
func (sc Scenario) Options() Options {
	sc = sc.withDefaults()
	return Options{Cost: sc.Cost, Adversary: sc.Adversary, Seed: sc.Seed}
}

// Sample fans the scenario's trials through the parallel sampling engine
// (trial i seeded Seed+i, merged in index order): the result is bit-identical
// at any worker count, which the adversary determinism regression asserts.
func (sc Scenario) Sample(workers int) (Stats, error) {
	sc = sc.withDefaults()
	return SampleWorkers(sc.Config, sc.Options(), sc.Trials, workers)
}

// Stripes projects the scenario onto per-stripe scenarios: the transfer is
// split into `streams` chunk-aligned byte ranges (core.PlanStripes), each
// getting the narrowed config (Payload sliced to its range, distinct
// TransferID, stripe coordinates set) and the per-stripe seed Seed+i — the
// same seeding udplan.PullStriped applies to its per-endpoint adversaries.
// Running each stripe scenario on two substrates and comparing is how the
// conformance suite pins that a striped transfer behaves identically
// everywhere.
func (sc Scenario) Stripes(streams int) []Scenario {
	sc = sc.withDefaults()
	chunk := sc.Config.ChunkSize
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	plan := core.PlanStripes(sc.Config.Bytes, chunk, streams)
	out := make([]Scenario, 0, len(plan))
	for i, s := range plan {
		ssc := sc
		ssc.Name = fmt.Sprintf("%s/stripe%d", sc.Name, i)
		ssc.Config = core.StripeConfig(sc.Config, s)
		ssc.Seed = sc.Seed + int64(i)
		out = append(out, ssc)
	}
	return out
}

// Counts is the substrate-independent projection of one transfer's protocol
// counters — everything that must agree when the same scenario script runs
// on the simulator, the V kernel and UDP loopback. Elapsed times are
// excluded (virtual versus wall clock), as are post-completion linger
// tallies (they depend on teardown timing, not protocol behaviour).
type Counts struct {
	DataSent    int // sender data transmissions, including retransmissions
	Retransmits int
	Rounds      int
	Timeouts    int
	AcksIn      int
	NaksIn      int
	DataRecv    int // receiver data arrivals, including duplicates
	Duplicates  int
	AcksOut     int
	NaksOut     int
}

// Outcome reports one cross-substrate scenario run.
type Outcome struct {
	Counts
	Completed bool
	// Data is the payload the receiver reassembled.
	Data []byte
	// Controller is the sender's rate-control trajectory; nil when no
	// policy ran.
	Controller *core.ControllerStats
}

// IntactPayload reports whether the delivered bytes match the scenario's.
func (o Outcome) IntactPayload(want []byte) bool { return bytes.Equal(o.Data, want) }

// Add folds another conversation's counters into c.
func (c *Counts) Add(o Counts) {
	c.DataSent += o.DataSent
	c.Retransmits += o.Retransmits
	c.Rounds += o.Rounds
	c.Timeouts += o.Timeouts
	c.AcksIn += o.AcksIn
	c.NaksIn += o.NaksIn
	c.DataRecv += o.DataRecv
	c.Duplicates += o.Duplicates
	c.AcksOut += o.AcksOut
	c.NaksOut += o.NaksOut
}

// recvCounts projects a receiver's counters net of linger: what arrives
// after completion depends on teardown timing, not on protocol behaviour.
func recvCounts(r core.RecvResult) Counts {
	return Counts{
		DataRecv:   r.DataPackets - r.LingerEvents,
		Duplicates: r.Duplicates - r.LingerEvents,
		AcksOut:    r.AcksSent - r.LingerAcks,
		NaksOut:    r.NaksSent - r.LingerNaks,
	}
}

// outcomeOf projects the two sides' results.
func outcomeOf(s core.SendResult, r core.RecvResult) Outcome {
	c := recvCounts(r)
	c.DataSent = s.DataPackets
	c.Retransmits = s.Retransmits
	c.Rounds = s.Rounds
	c.Timeouts = s.Timeouts
	c.AcksIn = s.AcksReceived
	c.NaksIn = s.NaksReceived
	return Outcome{Counts: c, Completed: r.Completed, Data: r.Data, Controller: s.Controller}
}

// RunSim executes the scenario once on the discrete-event simulator.
func (sc Scenario) RunSim() (Outcome, error) {
	sc = sc.withDefaults()
	res, err := Transfer(sc.Config, sc.Options())
	if err != nil {
		return Outcome{}, err
	}
	if res.Failed() {
		return Outcome{}, fmt.Errorf("simrun: scenario %s on sim: %v / %v", sc.Name, res.SendErr, res.RecvErr)
	}
	return outcomeOf(res.Send, res.Recv), nil
}

// RunVKernel executes the scenario once as a V-kernel MoveTo between two
// processes on a cluster with the same cost model and adversary seed.
func (sc Scenario) RunVKernel() (Outcome, error) {
	sc = sc.withDefaults()
	if sc.Config.Payload == nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s: V-kernel runs move real bytes; set Config.Payload", sc.Name)
	}
	c, err := vkernel.NewCluster(vkernel.Options{
		Cost:      sc.Cost,
		Seed:      sc.Seed,
		Adversary: sc.Adversary,
	})
	if err != nil {
		return Outcome{}, err
	}
	n := len(sc.Config.Payload)
	src := c.A.CreateProcess(n, false)
	dst := c.B.CreateProcess(n, true)
	copy(src.Bytes(), sc.Config.Payload)
	res, err := c.MoveTo(src, 0, dst, 0, n, vkernel.MoveOptions{
		Protocol:     sc.Config.Protocol,
		Strategy:     sc.Config.Strategy,
		Tr:           sc.Config.RetransTimeout,
		Window:       sc.Config.Window,
		Controller:   sc.Config.Controller,
		Chunk:        sc.Config.ChunkSize,
		MaxAttempts:  sc.Config.MaxAttempts,
		Linger:       sc.Config.Linger,
		ReceiverIdle: sc.Config.ReceiverIdle,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s on vkernel: %w", sc.Name, err)
	}
	out := outcomeOf(res.Send, res.Recv)
	out.Data = append([]byte(nil), dst.Bytes()...)
	return out, nil
}

// RunUDP executes the scenario once over real UDP loopback sockets, with the
// whole adversary installed on the sending endpoint (both directions), which
// — like the simulator's network-level adversary — sees every packet of the
// transfer exactly once.
func (sc Scenario) RunUDP() (Outcome, error) {
	sc = sc.withDefaults()
	if sc.Config.Payload == nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s: UDP runs move real bytes; set Config.Payload", sc.Name)
	}
	cs, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s: %w", sc.Name, err)
	}
	defer cs.Close()
	ss, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s: %w", sc.Name, err)
	}
	defer ss.Close()

	ce := udplan.NewEndpoint(cs, ss.LocalAddr())
	se := udplan.NewEndpoint(ss, cs.LocalAddr())
	ce.MaxTier, se.MaxTier = sc.Tier, sc.Tier
	if sc.Batch > 1 {
		ce.SetBatch(sc.Batch)
		se.SetBatch(sc.Batch)
	}
	if err := ce.SetAdversary(sc.Adversary, sc.Seed); err != nil {
		return Outcome{}, err
	}

	rcfg := sc.Config
	rcfg.Payload = nil // the receiver reassembles from packets
	type recvOut struct {
		res core.RecvResult
		err error
	}
	done := make(chan recvOut, 1)
	go func() {
		r, err := core.RunReceiver(se, rcfg)
		done <- recvOut{r, err}
	}()
	sres, serr := core.RunSender(ce, sc.Config)
	ro := <-done
	if serr != nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s on udp sender: %w", sc.Name, serr)
	}
	if ro.err != nil {
		return Outcome{}, fmt.Errorf("simrun: scenario %s on udp receiver: %w", sc.Name, ro.err)
	}
	return outcomeOf(sres, ro.res), nil
}
