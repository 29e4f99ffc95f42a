package sim

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// Span is one rectangle of simulated activity, consumed by the trace
// package to render the paper's Figure 2/3 timelines.
type Span struct {
	Host  string // station name, or "net" for the wire
	Lane  string // LaneCPU or LaneWire
	Label string
	Start time.Duration
	End   time.Duration
}

// Lane names used in trace spans.
const (
	LaneCPU  = "cpu"
	LaneWire = "wire"
)

// Network models the paper's measurement set-up: stations attached to one
// half-duplex broadcast medium, with per-packet copy costs charged to the
// station CPUs and seeded loss processes on the wire and in the receiving
// interfaces.
type Network struct {
	K    *Kernel
	Cost params.CostModel
	Loss params.LossModel

	// Trace, if non-nil, receives one Span per copy and transmission.
	Trace func(Span)

	// Medium selects the arbitration discipline: MediumFIFO (default,
	// the paper's uncontended setting) or MediumCSMACD (collisions and
	// exponential backoff, for the load extension).
	Medium MediumMode

	// DropFilter, when non-nil, is consulted for every delivery before the
	// probabilistic loss models: returning true drops the packet (counted
	// as a wire drop). Tests use it to inject precisely targeted failures
	// — "lose exactly the final acknowledgement of round one" — that
	// seed-hunting cannot express.
	DropFilter func(pkt *wire.Packet, to *Station) bool

	// Collisions and ExcessiveCollisions count CSMA/CD events.
	Collisions          int64
	ExcessiveCollisions int64

	// Adv totals the events injected by an installed adversary.
	Adv AdvCounters

	rng      *rand.Rand
	stations []*Station
	adv      *netAdversary

	// medium state: at most one frame on the wire at a time; contenders
	// queue (FIFO order, or CSMA/CD contention set).
	mediumBusy bool
	mediumQ    []*txJob

	// freeJobs pools txJob records recycled after FIFO-medium delivery.
	freeJobs []*txJob

	// freePkts pools the medium's packet copies; pkts counts those ever made.
	freePkts []*medPkt
	pkts     int

	geBad bool // Gilbert–Elliott loss-process state
}

// NewNetwork validates the models and returns an empty network.
func NewNetwork(k *Kernel, cost params.CostModel, loss params.LossModel, seed int64) (*Network, error) {
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	if err := loss.Validate(); err != nil {
		return nil, err
	}
	return &Network{K: k, Cost: cost, Loss: loss, rng: rand.New(rand.NewSource(seed))}, nil
}

// Counters accumulates per-station totals for experiment reporting.
type Counters struct {
	TxPackets    int64
	TxBytes      int64
	RxPackets    int64
	RxBytes      int64
	WireDrops    int64 // lost on the medium (the paper's network errors)
	IfaceDrops   int64 // lost in the receiving interface (the paper's interface errors)
	CorruptDrops int64 // mangled in flight and rejected by the wire checksum
	Overruns     int64 // arrived while all receive buffers were full
}

// AdvCounters totals the events an installed adversary injected, for
// consistency checks against the protocol-level results.
type AdvCounters struct {
	Drops      int64 // wire drops (adversary loss process or script)
	IfaceDrops int64 // interface drops
	Corrupts   int64 // frames bit-flipped (all were then rejected or passed)
	Passed     int64 // corrupted frames that evaded every codec check
	Dups       int64 // duplicate deliveries injected (all packet types)
	DataDups   int64 // duplicate deliveries of TypeData packets
	Holds      int64 // packets held back for reordering
	Flushes    int64 // holds released by the flush bound, not by overtaking
	Delays     int64 // packets given extra jitter delay
}

// Station is one host plus its network interface.
type Station struct {
	net  *Network
	Name string
	// Addr is the station's 48-bit address: a locally administered
	// unicast address (02:00:5e, then the station's number). The medium
	// carries wire packets, not frames; a Listener keys sessions by it.
	Addr [addrLen]byte

	Counters Counters

	rxq   []rxItem
	rxSig Signal
	// lent is the packet the last Recv returned, pooled at the next. rxCopy
	// is a waiting Recv's then hook (Proc.wait), bound once like txReady.
	lent   *medPkt
	rxCopy func() time.Duration

	txFree int
	txSig  Signal
	// txReady is the wait predicate on txSig, bound once here so the kernel
	// can check it without waking the waiter (Proc.WaitCond).
	txReady func() bool

	sink   bool
	closed bool

	// adv, when non-nil, is a station-scoped hostile-network model: it
	// judges every delivery this station sends or receives, exactly like an
	// adversary installed on both directions of one UDP endpoint. See
	// SetAdversary.
	adv *netAdversary

	// advHeld is this receiver's reorder queue: packets an adversary is
	// holding back until enough later arrivals judged by the same adversary
	// have overtaken them.
	advHeld []heldPkt
}

// rxItem is one packet queued in a station's receive interface, tagged with
// the station that transmitted it so a serving demux loop (sim.Listener)
// can route arrivals by source.
type rxItem struct {
	pkt  *medPkt
	from *Station
}

// String returns the station's name, so a Station can stand in for a peer
// address in substrate-independent logs and transfer stats.
func (s *Station) String() string { return s.Name }

// SetSink marks the station as a traffic sink: delivered packets are
// counted and discarded without occupying receive buffers. Load-generator
// destinations use this so background frames never overrun a real
// receiver.
func (s *Station) SetSink() { s.sink = true }

// txJob tracks one packet through the transmit path. Jobs recycle through
// Network.freeJobs; getJob clears stale fields.
type txJob struct {
	from    *Station
	to      *Station
	pkt     *medPkt
	done    bool
	sig     Signal
	txStart time.Duration // start of the copy into the interface, then of the frame on the wire
	// attempts counts CSMA/CD collisions suffered by this frame.
	attempts int
	// detached jobs (background traffic) own no transmit buffer and no
	// waiting process.
	detached bool
}

// getJob takes a job record from the pool (or allocates one) and binds it to
// a transmission.
func (n *Network) getJob(from, to *Station, pkt *medPkt) *txJob {
	var job *txJob
	if l := len(n.freeJobs); l > 0 {
		job = n.freeJobs[l-1]
		n.freeJobs[l-1] = nil
		n.freeJobs = n.freeJobs[:l-1]
		job.done = false
		job.txStart = 0
		job.attempts = 0
		job.detached = false
		job.sig.waiters = job.sig.waiters[:0]
	} else {
		job = &txJob{}
	}
	job.from, job.to, job.pkt = from, to, pkt
	return job
}

// putJob returns a delivered job to the pool; its packet has moved on to
// the receiver. Stale fields are cleared in getJob.
func (n *Network) putJob(job *txJob) {
	job.pkt = nil
	n.freeJobs = append(n.freeJobs, job)
}

// medPkt is the medium's own copy of a sent packet, as a real interface
// makes one, so the sender may overwrite its packet once Send returns. Copies
// are pooled per Network and own their buffers across reuse; one goes back to
// the pool wherever it is dropped, and at the next Recv of whoever it was lent
// to.
type medPkt struct {
	wire.Packet
	payload []byte
	missing []uint32
}

// copyPkt returns a pooled copy of p.
func (n *Network) copyPkt(p *wire.Packet) *medPkt {
	var q *medPkt
	if l := len(n.freePkts); l > 0 {
		q, n.freePkts = n.freePkts[l-1], n.freePkts[:l-1]
	} else {
		q = &medPkt{}
		n.pkts++
	}
	q.set(p)
	return q
}

// set overwrites q with p, copying p's slices into q's own buffers.
func (q *medPkt) set(p *wire.Packet) {
	q.Packet = *p
	q.Payload = own(&q.payload, p.Payload)
	q.SimMissing = own(&q.missing, p.SimMissing)
}

// own copies src into the reusable *buf and returns the copy; nil stays nil,
// as an elided packet's nil Payload is what marks it simulated.
func own[T byte | uint32](buf *[]T, src []T) []T {
	if src == nil {
		return nil
	}
	*buf = append((*buf)[:0], src...)
	return *buf
}

// putPkt returns a copy nobody holds any more to the pool.
func (n *Network) putPkt(q *medPkt) { n.freePkts = append(n.freePkts, q) }

// addrLen is the length of a station address.
const addrLen = 6

// stationAddr returns the address of the i-th station.
func stationAddr(i int) [addrLen]byte {
	return [addrLen]byte{0x02, 0x00, 0x5e, byte(i >> 16), byte(i >> 8), byte(i)}
}

// AddStation attaches a new station to the network.
func (n *Network) AddStation(name string) *Station {
	s := &Station{
		net:    n,
		Name:   name,
		Addr:   stationAddr(len(n.stations) + 1),
		txFree: n.Cost.TxBuffers,
	}
	s.txReady = func() bool { return s.txFree > 0 }
	s.rxCopy = func() time.Duration {
		if len(s.rxq) == 0 {
			return -1
		}
		return n.Cost.CopyTime(s.rxq[0].pkt.WireSize())
	}
	n.stations = append(n.stations, s)
	return s
}

// Stations returns the attached stations in attachment order.
func (n *Network) Stations() []*Station { return n.stations }

func (n *Network) span(host, lane, label string, start, end time.Duration) {
	if n.Trace != nil {
		n.Trace(Span{Host: host, Lane: lane, Label: label, Start: start, End: end})
	}
}

// typeLabel names a packet for trace spans; the post-measurement FIN gets
// its own label so timeline renderers can separate protocol activity from
// teardown housekeeping.
func typeLabel(p *wire.Packet) string {
	if p.Type == wire.TypeAck && p.Flags&wire.FlagDone != 0 {
		return "FIN"
	}
	return p.Type.String()
}

// Send copies the packet into the interface and waits for the transmission
// to complete (the paper's single-buffered busy-wait semantics). It must be
// called from process context.
func (s *Station) Send(p *Proc, to *Station, pkt *wire.Packet) {
	s.sendSync(p, s.unicast(to), pkt)
}

// SendAsync copies the packet into a free interface buffer and returns as
// soon as the copy completes; the interface transmits in the background
// (the double-buffered semantics of §2.1.3/Figure 3.d). If all transmit
// buffers are busy the call waits for one to free.
func (s *Station) SendAsync(p *Proc, to *Station, pkt *wire.Packet) {
	job := s.take(p, s.unicast(to), pkt)
	p.Sleep(s.net.Cost.CopyTime(job.pkt.WireSize()))
	s.copied(job)
}

func (s *Station) unicast(to *Station) *Station {
	if to == nil || to == s {
		panic(fmt.Sprintf("sim: station %s: invalid send destination", s.Name))
	}
	return to
}

// SendBroadcast transmits one frame heard by every other attached station
// — the shared medium's native one-to-many (a frame to the broadcast
// address on a real LAN, §2 of the paper's setting). The wire is occupied
// exactly once regardless of the receiver count; each receiver then runs
// the frame through its own delivery path (drop filter, adversary, loss
// draws), so a broadcast is unreliable per receiver just as on a real
// cable. Blocks until the transmission completes, like Send.
func (s *Station) SendBroadcast(p *Proc, pkt *wire.Packet) {
	s.sendSync(p, nil, pkt)
}

// take acquires a transmit buffer (every txDone broadcasts to all of the
// station's senders; the kernel resumes only one that finds a buffer) and
// starts copying pkt into a job bound for to, nil meaning broadcast.
func (s *Station) take(p *Proc, to *Station, pkt *wire.Packet) *txJob {
	p.WaitCond(&s.txSig, -1, s.txReady)
	s.txFree--
	job := s.net.getJob(s, to, s.net.copyPkt(pkt))
	job.txStart = s.net.K.now
	return job
}

// sendSync is Send and SendBroadcast. The process would only sleep through
// the copy, so the copy ends in a kernel event (evCopied) and a send into a
// free buffer switches to its process once, when the frame has left the wire.
func (s *Station) sendSync(p *Proc, to *Station, pkt *wire.Packet) {
	job := s.take(p, to, pkt)
	k := s.net.K
	k.newEvent(k.now+s.net.Cost.CopyTime(job.pkt.WireSize()), evCopied).job = job
	p.Wait(&job.sig, -1)
}

// copied ends a job's copy into the interface — CPU time on this station —
// and hands the frame to the medium.
func (s *Station) copied(job *txJob) {
	n := s.net
	size := job.pkt.WireSize()
	if n.Trace != nil {
		n.span(s.Name, LaneCPU, "in:"+typeLabel(&job.pkt.Packet), job.txStart, n.K.now)
	}
	s.Counters.TxPackets++
	s.Counters.TxBytes += int64(size)
	n.enqueueTx(job)
}

// enqueueTx starts the transmission if the medium is idle, else queues it
// under the configured arbitration discipline.
func (n *Network) enqueueTx(job *txJob) {
	if n.Medium == MediumCSMACD {
		n.csmaEnqueue(job)
		return
	}
	if n.mediumBusy {
		n.mediumQ = append(n.mediumQ, job)
		return
	}
	n.startTx(job)
}

// startTx seizes the medium and schedules the end of the frame as a typed
// pooled event — the FIFO transmit path allocates nothing in steady state.
func (n *Network) startTx(job *txJob) {
	n.mediumBusy = true
	k := n.K
	job.txStart = k.Now()
	ev := k.newEvent(k.now+n.Cost.WireTime(job.pkt.WireSize()), evTxDone)
	ev.job = job
}

// txDone fires when the frame's last bit leaves the wire: it frees the
// medium, schedules delivery one propagation delay later, releases the
// sender's buffer and starts the next queued transmission.
func (n *Network) txDone(job *txJob) {
	k := n.K
	if n.Trace != nil {
		n.span("net", LaneWire, fmt.Sprintf("%s %d", typeLabel(&job.pkt.Packet), job.pkt.Seq), job.txStart, k.Now())
	}
	n.mediumBusy = false
	// Propagation: the frame is fully received τ after the last bit
	// leaves the sender.
	ev := k.newEvent(k.now+n.Cost.Propagation, evDeliver)
	ev.job = job
	// Free the sender's buffer and wake anyone waiting on it.
	n.finishTx(job)
	// Medium is free: start the next queued transmission, FIFO.
	if len(n.mediumQ) > 0 {
		next := n.mediumQ[0]
		n.mediumQ = append(n.mediumQ[:0], n.mediumQ[1:]...)
		n.startTx(next)
	}
}

// netAdversary is an installed hostile-network model: the seeded decision
// engine plus the scratch buffers the corruption path encodes frames into.
type netAdversary struct {
	cfg     params.Adversary
	st      *params.AdversaryState
	scratch []byte
}

// heldPkt is one reordered packet waiting in a receiver's hold queue.
type heldPkt struct {
	pkt       *medPkt
	from      *Station      // transmitting station (for source-tagged delivery)
	by        *netAdversary // the adversary that held it (overtaking is scoped to it)
	remaining int           // overtaking deliveries still needed
	timer     Timer         // flush bound (liveness when traffic stops)
}

// SetAdversary installs a hostile-network model on the deliver path, seeded
// independently of the loss-model RNG. It composes with the plain LossModel
// given to NewNetwork (the adversary judges first; survivors still face the
// network's own loss processes) and with DropFilter (consulted first of all).
func (n *Network) SetAdversary(adv params.Adversary, seed int64) error {
	if err := adv.Validate(); err != nil {
		return err
	}
	if !adv.Active() {
		n.adv = nil
		return nil
	}
	n.adv = &netAdversary{cfg: adv, st: adv.NewState(seed)}
	return nil
}

// SetAdversary installs a station-scoped hostile-network model: it judges
// every delivery this station transmits or receives, with its own seeded
// decision stream and its own hold scope. This is the simulator mirror of
// installing a seeded adversary on both directions of one UDP endpoint
// (udplan.Endpoint.SetAdversary): in a many-client scenario each client
// carries its own adversary, so one client's traffic cannot perturb
// another's decision stream and per-client behaviour reproduces exactly,
// regardless of how sessions interleave on the shared medium.
func (s *Station) SetAdversary(adv params.Adversary, seed int64) error {
	if err := adv.Validate(); err != nil {
		return err
	}
	if !adv.Active() {
		s.adv = nil
		return nil
	}
	s.adv = &netAdversary{cfg: adv, st: adv.NewState(seed)}
	return nil
}

// advFor selects the adversary judging a from→to delivery: the transmitting
// station's, else the receiving station's, else the network-wide one. A
// station adversary therefore sees exactly the packets one endpoint's
// MangleTx/MangleRx pair would see on UDP.
func (n *Network) advFor(from, to *Station) *netAdversary {
	if from != nil && from.adv != nil {
		return from.adv
	}
	if to.adv != nil {
		return to.adv
	}
	return n.adv
}

// deliverBroadcast fans one transmitted frame out to every attached
// station except the transmitter. Each receiver gets its own delivery —
// its own drop-filter, adversary and loss draws, and its own copy — so
// per-receiver outcomes are independent, exactly as for stations tapping a
// shared cable.
func (n *Network) deliverBroadcast(from *Station, pkt *medPkt) {
	for _, to := range n.stations {
		if to != from {
			n.deliver(from, to, n.copyPkt(&pkt.Packet))
		}
	}
	n.putPkt(pkt)
}

// deliver applies the drop filter and the adversary, then the loss model.
// From here on the delivery owns pkt: every path that drops it pools it.
func (n *Network) deliver(from, to *Station, pkt *medPkt) {
	if n.DropFilter != nil && n.DropFilter(&pkt.Packet, to) {
		to.Counters.WireDrops++
		n.putPkt(pkt)
		return
	}
	adv := n.advFor(from, to)
	if adv == nil {
		n.deliverNow(from, to, pkt)
		return
	}
	n.deliverAdversarial(adv, from, to, pkt)
}

// deliverAdversarial runs one packet through the judging adversary: it first
// lets the arrival overtake the receiver's held packets (those held by the
// same adversary), then applies the verdict — drop, corrupt, duplicate,
// hold, delay — and finally releases any holds the arrival matured.
// Replayed deliveries (matured holds, duplicates, delayed packets) bypass
// the adversary so a packet is judged exactly once.
func (n *Network) deliverAdversarial(adv *netAdversary, from, to *Station, pkt *medPkt) {
	ready := to.advPass(adv)
	m := adv.st.Judge(&pkt.Packet)
	switch {
	case m.Drop:
		to.Counters.WireDrops++
		n.Adv.Drops++
		n.putPkt(pkt)
	case m.IfaceDrop:
		to.Counters.IfaceDrops++
		n.Adv.IfaceDrops++
		n.putPkt(pkt)
	case m.Corrupt && n.corrupt(adv, to, pkt, m.CorruptBit):
		// rejected by the wire codec; counted in corrupt
		n.putPkt(pkt)
	default:
		// The duplicate is copied first: delivering pkt may pool it.
		var dup *medPkt
		if m.Duplicate {
			dup = n.copyPkt(&pkt.Packet)
		}
		if m.Hold > 0 {
			n.Adv.Holds++
			held := pkt
			timer := n.K.After(adv.cfg.FlushAfter(), func() { n.flushHeld(to, held) })
			to.advHeld = append(to.advHeld, heldPkt{pkt: pkt, from: from, by: adv, remaining: m.Hold, timer: timer})
		} else if m.Delay > 0 {
			n.Adv.Delays++
			delayed := pkt
			n.K.After(m.Delay, func() { n.deliverNow(from, to, delayed) })
		} else {
			n.deliverNow(from, to, pkt)
		}
		if dup != nil {
			n.Adv.Dups++
			if dup.Type == wire.TypeData {
				n.Adv.DataDups++
			}
			n.deliverNow(from, to, dup)
		}
	}
	for _, h := range ready {
		h.timer.Cancel()
		n.deliverNow(h.from, to, h.pkt)
	}
}

// advPass records one arrival judged by adv overtaking the station's held
// packets and returns the holds that matured (to be delivered after the
// arrival). Only packets held by the same adversary are overtaken: each
// client's reorder scope is its own traffic, exactly as on a per-endpoint
// UDP adversary.
func (s *Station) advPass(adv *netAdversary) []heldPkt {
	if len(s.advHeld) == 0 {
		return nil
	}
	var ready []heldPkt
	keep := s.advHeld[:0]
	for i := range s.advHeld {
		h := s.advHeld[i]
		if h.by == adv {
			h.remaining--
		}
		if h.remaining <= 0 {
			ready = append(ready, h)
		} else {
			keep = append(keep, h)
		}
	}
	s.advHeld = keep
	return ready
}

// flushHeld releases a held packet whose flush bound expired before enough
// traffic overtook it.
func (n *Network) flushHeld(to *Station, pkt *medPkt) {
	for i := range to.advHeld {
		if to.advHeld[i].pkt == pkt {
			from := to.advHeld[i].from
			to.advHeld = append(to.advHeld[:i], to.advHeld[i+1:]...)
			n.Adv.Flushes++
			n.deliverNow(from, to, pkt)
			return
		}
	}
}

// corrupt flips the selected bit of the packet's encoded frame and runs the
// real wire codec over the result: packets whose payload bytes are carried
// are encoded, mangled and re-decoded, so the Internet checksum (and the
// codec's structural checks) genuinely fire. Payload-elided simulated packets
// have no frame to mangle; the checksum rejecting the flip is modelled
// directly. It reports whether the packet was rejected; on the
// (codec-evading) false path p is overwritten with what actually decoded.
func (n *Network) corrupt(adv *netAdversary, to *Station, p *medPkt, bit int64) bool {
	n.Adv.Corrupts++
	if len(p.Payload) == 0 && p.VirtualSize > 0 {
		to.Counters.CorruptDrops++
		return true
	}
	buf, err := p.Encode(adv.scratch[:0])
	adv.scratch = buf[:0]
	if err != nil {
		to.Counters.CorruptDrops++
		return true
	}
	params.FlipBit(buf, bit)
	var dec wire.Packet
	if err := wire.DecodeInto(&dec, buf); err != nil {
		to.Counters.CorruptDrops++
		return true
	}
	// The flip evaded the checksum: deliver what the receiver would decode,
	// copied out of the scratch frame it aliases.
	n.Adv.Passed++
	dec.VirtualSize = p.VirtualSize
	p.set(&dec)
	return false
}

// deliverNow applies the loss model and enqueues the packet in the receiver.
func (n *Network) deliverNow(from, to *Station, pkt *medPkt) {
	switch {
	case n.wireLost():
		to.Counters.WireDrops++
	case n.Loss.PIface > 0 && n.rng.Float64() < n.Loss.PIface:
		to.Counters.IfaceDrops++
	case to.sink:
		to.Counters.RxPackets++
		to.Counters.RxBytes += int64(pkt.WireSize())
	case len(to.rxq) >= n.Cost.RxBuffers:
		to.Counters.Overruns++
	default:
		to.rxq = append(to.rxq, rxItem{pkt: pkt, from: from})
		to.rxSig.Broadcast(n.K)
		return
	}
	n.putPkt(pkt)
}

// wireLost draws from the configured wire-loss process.
func (n *Network) wireLost() bool {
	return n.Loss.DrawWireLoss(n.rng, &n.geBad)
}

// Recv blocks until a packet has been copied out of the interface and
// returns it. timeout < 0 waits forever; on expiry Recv returns
// os.ErrDeadlineExceeded (matching net.Conn deadline semantics, so protocol
// code is substrate-agnostic). The copy out of the interface is charged to
// this station's CPU. Single consumer per station; the packet stays valid
// until its next Recv, as on every core.Env.
func (s *Station) Recv(p *Proc, timeout time.Duration) (*wire.Packet, error) {
	pkt, _, err := s.RecvFrom(p, timeout)
	return pkt, err
}

// RecvFrom is Recv reporting the transmitting station as well — the
// demultiplexing primitive a serving station needs to route concurrent
// client conversations (see sim.Listener). A closed station reports
// net.ErrClosed, mirroring a closed socket.
func (s *Station) RecvFrom(p *Proc, timeout time.Duration) (*wire.Packet, *Station, error) {
	q, from, err := s.recv(p, timeout)
	if err != nil {
		return nil, nil, err
	}
	return &q.Packet, from, nil
}

// recv is RecvFrom lending out the medium's copy itself. A receiver that has
// to wait is resumed once, at the end of its copy out of the interface: the
// wake-up that finds a packet queued starts the copy in the kernel (rxCopy).
func (s *Station) recv(p *Proc, timeout time.Duration) (*medPkt, *Station, error) {
	k := s.net.K
	if s.lent != nil {
		s.net.putPkt(s.lent)
		s.lent = nil
	}
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = k.Now() + timeout
	}
	copied := false // a wake-up found the head packet and copied it
	for len(s.rxq) == 0 {
		if s.closed {
			return nil, nil, net.ErrClosed
		}
		wait := time.Duration(-1)
		if deadline >= 0 {
			wait = deadline - k.Now()
			if wait < 0 {
				return nil, nil, os.ErrDeadlineExceeded
			}
		}
		timedOut := p.wait(&s.rxSig, wait, nil, s.rxCopy)
		if timedOut && len(s.rxq) == 0 {
			if s.closed {
				return nil, nil, net.ErrClosed
			}
			return nil, nil, os.ErrDeadlineExceeded
		}
		copied = !timedOut
	}
	it := s.rxq[0]
	size := it.pkt.WireSize()
	copyTime := s.net.Cost.CopyTime(size)
	if !copied {
		p.Sleep(copyTime)
	}
	if s.net.Trace != nil {
		s.net.span(s.Name, LaneCPU, "out:"+typeLabel(&it.pkt.Packet), k.now-copyTime, k.now)
	}
	// The buffer is occupied until the copy completes.
	s.rxq = append(s.rxq[:0], s.rxq[1:]...)
	s.Counters.RxPackets++
	s.Counters.RxBytes += int64(size)
	s.lent = it.pkt
	return it.pkt, it.from, nil
}

// Close marks the station closed, waking any blocked receiver with
// net.ErrClosed — the simulator's equivalent of closing a socket, which is
// how a striped pull aborts sibling stripes promptly when one fails. It
// must be called from process or kernel context.
func (s *Station) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.rxSig.Broadcast(s.net.K)
}

// Closed reports whether the station has been closed.
func (s *Station) Closed() bool { return s.closed }

// Reopen marks a closed station open again — the simulator's equivalent of a
// crashed server binding a fresh socket on the same port. Packets that queued
// while closed are still in the interface; a restart that should lose them
// (a real crash loses kernel socket buffers) calls FlushRx first.
func (s *Station) Reopen() { s.closed = false }

// FlushRx discards any packets queued in the receive interface without
// charging copy time (used between Monte-Carlo attempts that model a
// restart, and by tests).
func (s *Station) FlushRx() int {
	n := len(s.rxq)
	for _, it := range s.rxq {
		s.net.putPkt(it.pkt)
	}
	s.rxq = s.rxq[:0]
	return n
}

// Endpoint adapts a (process, station, peer) triple to the Env interface the
// protocol engines in internal/core are written against, keeping the Env
// packet-ownership rule through its station.
type Endpoint struct {
	P    *Proc
	St   *Station
	Peer *Station
}

// NewEndpoint binds a process to its station and peer.
func NewEndpoint(p *Proc, st, peer *Station) *Endpoint {
	return &Endpoint{P: p, St: st, Peer: peer}
}

// Now returns the current virtual time.
func (e *Endpoint) Now() time.Duration { return e.P.Now() }

// Compute charges d of CPU time to this endpoint's host.
func (e *Endpoint) Compute(d time.Duration) { e.P.Sleep(d) }

// SleepFor idles the endpoint's process for d of virtual time — the hook
// core.ResumeOptions uses for backoff waits, so a simulated client's recovery
// schedule runs on the simulator's clock instead of the wall's.
func (e *Endpoint) SleepFor(d time.Duration) { e.P.Sleep(d) }

// Send transmits synchronously (single-buffered semantics).
func (e *Endpoint) Send(pkt *wire.Packet) error {
	e.St.Send(e.P, e.Peer, pkt)
	return nil
}

// SendAsync transmits with double-buffered semantics.
func (e *Endpoint) SendAsync(pkt *wire.Packet) error {
	e.St.SendAsync(e.P, e.Peer, pkt)
	return nil
}

// Recv waits for the next packet.
func (e *Endpoint) Recv(timeout time.Duration) (*wire.Packet, error) {
	return e.St.Recv(e.P, timeout)
}
