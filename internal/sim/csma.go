package sim

import (
	"time"

	"blastlan/internal/wire"
)

// MediumMode selects how stations arbitrate the shared medium.
type MediumMode int

const (
	// MediumFIFO serialises transmissions in arrival order: an adequate
	// stand-in for CSMA/CD deferral between two stations under the paper's
	// low-load conditions (contention "all but absent", §1).
	MediumFIFO MediumMode = iota
	// MediumCSMACD models 1-persistent CSMA/CD with collisions and binary
	// exponential backoff among stations that queued while the medium was
	// busy (IEEE 802.3 parameters scaled to the configured bandwidth).
	// This powers the beyond-the-paper load study: the paper's conclusions
	// are explicitly "valid only under low load conditions", and this mode
	// quantifies what happens outside them.
	MediumCSMACD
)

// 802.3 timing constants in bit times, scaled by the link bandwidth.
const (
	slotBits       = 512 // collision window / backoff quantum
	jamBits        = 48  // jam + abort overhead after a collision
	interFrameBits = 96  // inter-frame gap
	maxBackoffExp  = 10  // backoff caps at 2^10 slots
	maxAttempts    = 16  // excessive collisions: drop the frame
)

// bitTime converts a count of bit times to a duration on this network.
func (n *Network) bitTime(bits int64) time.Duration {
	return time.Duration(bits * int64(time.Second) / n.Cost.BandwidthBitsPerSec)
}

// csmaEnqueue handles a transmit attempt in CSMA/CD mode: transmit
// immediately if the medium is idle, otherwise defer (1-persistent).
//
// Simplification, documented: staggered arrivals on an idle medium never
// collide (the real vulnerable window is one propagation delay, ~10 µs);
// collisions happen among stations that deferred behind the same busy
// period and therefore restart simultaneously. Under low load this
// degenerates to exactly the FIFO behaviour, preserving the paper's
// error-free numbers; under high load it produces the familiar collision
// and backoff dynamics.
func (n *Network) csmaEnqueue(job *txJob) {
	if n.mediumBusy {
		n.mediumQ = append(n.mediumQ, job)
		return
	}
	n.csmaTransmit(job)
}

// csmaTransmit puts one frame on the wire and arbitrates the next.
func (n *Network) csmaTransmit(job *txJob) {
	n.mediumBusy = true
	k := n.K
	size := job.pkt.WireSize()
	wireTime := n.Cost.WireTime(size)
	start := k.Now()
	k.After(wireTime, func() {
		n.span("net", LaneWire, typeLabel(&job.pkt.Packet), start, k.Now())
		pkt := job.pkt
		from, to := job.from, job.to
		k.After(n.Cost.Propagation, func() { n.deliver(from, to, pkt) })
		n.finishTx(job)
		// The medium stays seized for the inter-frame gap, then the
		// deferred stations contend.
		k.After(n.bitTime(interFrameBits), func() {
			n.mediumBusy = false
			n.csmaResolve()
		})
	})
}

// csmaResolve lets the deferred stations contend for the idle medium.
func (n *Network) csmaResolve() {
	switch len(n.mediumQ) {
	case 0:
		return
	case 1:
		job := n.mediumQ[0]
		n.mediumQ = n.mediumQ[:0]
		n.csmaTransmit(job)
		return
	}
	// Two or more 1-persistent stations start together: collision. Every
	// participant jams, aborts, and backs off 0..2^min(c,10)-1 slots.
	colliders := append([]*txJob(nil), n.mediumQ...)
	n.mediumQ = n.mediumQ[:0]
	n.Collisions++
	n.mediumBusy = true
	k := n.K
	jam := n.bitTime(jamBits)
	k.After(jam, func() {
		n.mediumBusy = false
		for _, job := range colliders {
			job.attempts++
			if job.attempts >= maxAttempts {
				// Excessive collisions: the interface gives up on the
				// frame — a wire-level loss the protocols must recover.
				job.to.Counters.WireDrops++
				n.ExcessiveCollisions++
				n.finishTx(job)
				n.putPkt(job.pkt)
				continue
			}
			exp := job.attempts
			if exp > maxBackoffExp {
				exp = maxBackoffExp
			}
			slots := n.rng.Intn(1 << exp)
			job := job
			k.After(time.Duration(slots)*n.bitTime(slotBits), func() {
				n.csmaEnqueue(job)
			})
		}
		// Frames that arrived during the jam contend next.
		n.csmaResolve()
	})
}

// finishTx releases the sender-side resources of a completed (or abandoned)
// transmission attempt. Detached jobs (background traffic) own no buffer.
func (n *Network) finishTx(job *txJob) {
	if job.done {
		return
	}
	job.done = true
	if job.detached {
		return
	}
	job.from.txFree++
	job.from.txSig.Broadcast(n.K)
	job.sig.Broadcast(n.K)
}

// AddLoadGenerator injects background traffic: fixed-size frames from src
// to dst with exponentially distributed inter-arrival times targeting the
// given offered load (fraction of the link bandwidth). The destination
// should be a sink station (SetSink), so background frames never occupy
// protocol receive buffers. Background generators bypass the host CPU
// model: they stand in for *other machines'* traffic, which only contends
// for the wire.
func (n *Network) AddLoadGenerator(src, dst *Station, offeredLoad float64, frameBytes int) {
	if offeredLoad <= 0 {
		return
	}
	frameTime := n.Cost.WireTime(frameBytes)
	mean := time.Duration(float64(frameTime) / offeredLoad)
	var next func()
	seq := uint32(0)
	next = func() {
		// Exponential inter-arrival, seeded from the network RNG.
		gap := time.Duration(n.rng.ExpFloat64() * float64(mean))
		n.K.After(gap, func() {
			seq++
			src.Counters.TxPackets++
			src.Counters.TxBytes += int64(frameBytes)
			job := n.getJob(src, dst,
				n.copyPkt(&wire.Packet{Type: wire.TypeData, Trans: backgroundTransferID, Seq: seq, VirtualSize: frameBytes}))
			job.detached = true
			n.enqueueTx(job)
			next()
		})
	}
	next()
}

// backgroundTransferID tags load-generator frames; protocol code never uses
// this transfer id, and sink stations discard the frames on delivery.
const backgroundTransferID = 0xBAC46F0A
