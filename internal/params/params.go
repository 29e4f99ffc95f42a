// Package params defines the cost and loss models that parameterise every
// protocol experiment in this repository.
//
// The paper (Zwaenepoel, SIGCOMM 1985, §2.1) reduces the SUN-workstation /
// 3-Com-interface / 10 Mb/s-Ethernet hardware to a handful of per-packet
// constants:
//
//	C  = 1.35 ms  copy a 1024-byte data packet into or out of the interface
//	Ca = 0.17 ms  copy a   64-byte ack  packet into or out of the interface
//	T  = 0.82 ms  wire time of a 1024-byte data packet at 10 Mb/s
//	Ta = 0.05 ms  wire time of a   64-byte ack  packet at 10 Mb/s
//	τ  < 10 µs    network propagation/latency
//
// CostModel generalises those constants: copy time is linear in packet size
// (base + per-byte), wire time is size·8/bandwidth, so the same model covers
// the standalone measurements (Table 1/2), the V-kernel overheads (Table 3),
// the Excelan-DMA discussion (§2.1.3), and modern what-if presets.
package params

import (
	"fmt"
	"math/rand"
	"time"
)

// Packet sizes used throughout the paper's experiments (§2.1.1).
const (
	// DataPacketSize is the payload-bearing packet size used in all of the
	// paper's measurements.
	DataPacketSize = 1024
	// AckPacketSize is the acknowledgement packet size.
	AckPacketSize = 64
	// MaxEthernetPacket is the maximum packet size on the 10 Mb/s Ethernet
	// quoted by the paper (§2.1.2 footnote).
	MaxEthernetPacket = 1536
)

// CostModel captures the per-packet costs of one host/interface/network
// combination. The zero value is invalid; use a preset or NewCostModel.
type CostModel struct {
	// Name identifies the preset in experiment output.
	Name string

	// CopyDataPkt and CopyAckPkt are the measured CPU costs of copying a
	// DataPacketSize-byte packet and an AckPacketSize-byte packet into or out
	// of the network interface (the paper's C and Ca). Copy time for other
	// sizes is interpolated linearly between (and extrapolated beyond) these
	// two anchor points, which keeps the paper's constants exact under
	// integer arithmetic. In kernel presets the costs include header
	// handling, demultiplexing, access-right checks and interrupt dispatch
	// (§2.2).
	CopyDataPkt time.Duration
	CopyAckPkt  time.Duration

	// BandwidthBitsPerSec is the raw network data rate (10 Mb/s Ethernet in
	// the paper). Wire time counts the packet bytes alone: the paper's
	// "computed at the 10 megabit data rate" arithmetic folds framing into
	// the quoted sizes.
	BandwidthBitsPerSec int64

	// Propagation is the one-way network latency τ.
	Propagation time.Duration

	// TxBuffers is the number of transmit buffers in the interface: 1 for
	// the 3-Com single-buffered interface, 2 for the double-buffered design
	// of §2.1.3/Figure 3.d. (More than 2 buys nothing; the paper notes this
	// and tests assert it.)
	TxBuffers int
	// RxBuffers is the number of receive buffers; an arriving packet that
	// finds all of them full is dropped (an "interface error", §3).
	RxBuffers int
}

// NewCostModel builds a linear copy-cost model from the two measured points
// the paper gives: the copy time of a data packet and of an ack packet.
func NewCostModel(name string, dataCopy, ackCopy time.Duration, bandwidth int64, prop time.Duration) CostModel {
	return CostModel{
		Name:                name,
		CopyDataPkt:         dataCopy,
		CopyAckPkt:          ackCopy,
		BandwidthBitsPerSec: bandwidth,
		Propagation:         prop,
		TxBuffers:           1,
		RxBuffers:           2,
	}
}

// Standalone3Com is the paper's §2.1 standalone measurement configuration:
// SUN workstation, 3-Com Multibus interface, idle 10 Mb/s Ethernet.
// It reproduces C = 1.35 ms, Ca = 0.17 ms, T = 0.82 ms, Ta = 0.05 ms.
func Standalone3Com() CostModel {
	return NewCostModel("standalone-3com",
		1350*time.Microsecond, 170*time.Microsecond,
		10_000_000, 10*time.Microsecond)
}

// VKernel is the paper's §2.2 V-kernel configuration: the same hardware with
// kernel overhead (headers, access-right checking, demultiplexing, interrupt
// handling) folded into the copy costs, giving C = 1.83 ms and Ca = 0.67 ms.
func VKernel() CostModel {
	return NewCostModel("v-kernel",
		1830*time.Microsecond, 670*time.Microsecond,
		10_000_000, 10*time.Microsecond)
}

// ExcelanDMA models the §2.1.3 observation that the Excelan board's on-board
// 8088 copies "much slower" than the 68000 host copies into the 3-Com
// interface: same structure, copies ~2.5× slower, but performed by the
// interface processor (which our simulator still serialises with the
// transfer, exactly as the paper's formulas assume when C is reinterpreted
// as the DMA processor's copy time).
func ExcelanDMA() CostModel {
	m := NewCostModel("excelan-dma",
		3375*time.Microsecond, 425*time.Microsecond,
		10_000_000, 10*time.Microsecond)
	return m
}

// DoubleBuffered returns a copy of m with a double-buffered interface
// (Figure 3.d): the processor may copy the next packet into the second
// buffer while the first is being transmitted.
func DoubleBuffered(m CostModel) CostModel {
	m.Name = m.Name + "+dblbuf"
	m.TxBuffers = 2
	return m
}

// ModernGigabit is a what-if preset: 1 Gb/s network, ≈10 GB/s memory copies
// (≈0.1 µs per data packet plus ≈0.2 µs fixed descriptor handling), 0.2 µs
// cut-through-switch latency. Copies no longer dominate (C/T ≈ 0.04 versus
// the paper's 1.6), so the blast advantage shrinks toward the naïve
// wire-time arithmetic of §2.1 — an ablation showing the paper's effect is
// a property of the copy/wire cost ratio, exactly as it argues.
func ModernGigabit() CostModel {
	return CostModel{
		Name:                "modern-1g",
		CopyDataPkt:         300 * time.Nanosecond,
		CopyAckPkt:          210 * time.Nanosecond,
		BandwidthBitsPerSec: 1_000_000_000,
		Propagation:         200 * time.Nanosecond,
		TxBuffers:           1,
		RxBuffers:           2,
	}
}

// Validate reports whether the model is usable.
func (m CostModel) Validate() error {
	switch {
	case m.BandwidthBitsPerSec <= 0:
		return fmt.Errorf("params: %s: bandwidth must be positive", m.Name)
	case m.CopyDataPkt < m.CopyAckPkt:
		return fmt.Errorf("params: %s: data-packet copy cannot be cheaper than ack copy", m.Name)
	case m.CopyAckPkt < 0:
		return fmt.Errorf("params: %s: copy costs must be non-negative", m.Name)
	case m.CopyTime(0) < 0:
		return fmt.Errorf("params: %s: copy cost extrapolates negative at size 0", m.Name)
	case m.TxBuffers < 1:
		return fmt.Errorf("params: %s: need at least one transmit buffer", m.Name)
	case m.RxBuffers < 1:
		return fmt.Errorf("params: %s: need at least one receive buffer", m.Name)
	case m.Propagation < 0:
		return fmt.Errorf("params: %s: propagation must be non-negative", m.Name)
	}
	return nil
}

// CopyTime is the CPU time to copy a packet of the given size into or out of
// the network interface: linear interpolation through the two measured
// anchor points (AckPacketSize, CopyAckPkt) and (DataPacketSize, CopyDataPkt).
func (m CostModel) CopyTime(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	span := int64(m.CopyDataPkt - m.CopyAckPkt)
	d := int64(m.CopyAckPkt) + span*int64(bytes-AckPacketSize)/int64(DataPacketSize-AckPacketSize)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// WireTime is the time the packet occupies the network.
func (m CostModel) WireTime(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	bits := 8 * int64(bytes)
	return time.Duration(bits * int64(time.Second) / m.BandwidthBitsPerSec)
}

// C, Ca, T and Ta return the paper's four constants under this model.
func (m CostModel) C() time.Duration  { return m.CopyTime(DataPacketSize) }
func (m CostModel) Ca() time.Duration { return m.CopyTime(AckPacketSize) }
func (m CostModel) T() time.Duration  { return m.WireTime(DataPacketSize) }
func (m CostModel) Ta() time.Duration { return m.WireTime(AckPacketSize) }

// Packets returns the number of DataPacketSize packets needed to carry a
// transfer of the given size (the paper's N or D).
func Packets(transferBytes int) int {
	if transferBytes <= 0 {
		return 0
	}
	return (transferBytes + DataPacketSize - 1) / DataPacketSize
}

// LossModel describes how packets are lost.
//
// The paper's analysis (§3) assumes statistically independent losses with a
// constant per-packet probability. PNet models losses on the wire; PIface
// models drops in the receiving interface, which the paper observed to be an
// order of magnitude more frequent when one station blasts at another. Both
// apply to data and ack packets alike.
//
// Burst, if non-nil, switches the wire-loss process to a Gilbert–Elliott
// two-state chain (the paper's "burst errors occasionally occur" caveat);
// PNet is then ignored for the wire.
type LossModel struct {
	PNet   float64
	PIface float64
	Burst  *GilbertElliott
}

// GilbertElliott is a two-state Markov loss process: in the Good state
// packets are lost with probability PGood, in the Bad state with PBad; the
// chain moves Good→Bad with probability PGoodToBad per packet and Bad→Good
// with PBadToGood.
type GilbertElliott struct {
	PGood, PBad            float64
	PGoodToBad, PBadToGood float64
}

// MeanLoss is the stationary average loss probability of the chain,
// useful for constructing a burst model with the same average rate as a
// Bernoulli model.
func (g GilbertElliott) MeanLoss() float64 {
	den := g.PGoodToBad + g.PBadToGood
	if den == 0 {
		return g.PGood
	}
	piBad := g.PGoodToBad / den
	return (1-piBad)*g.PGood + piBad*g.PBad
}

// DrawWireLoss draws one wire-loss decision from the model: it advances the
// Gilbert–Elliott chain one packet (geBad is the caller-held chain state)
// and draws from the new state's loss probability, or draws Bernoulli(PNet)
// when no burst process is configured. The simulated network and the
// adversary both consume this single implementation, each with its own rng
// and chain state.
func (l LossModel) DrawWireLoss(rng *rand.Rand, geBad *bool) bool {
	if g := l.Burst; g != nil {
		if *geBad {
			if rng.Float64() < g.PBadToGood {
				*geBad = false
			}
		} else {
			if rng.Float64() < g.PGoodToBad {
				*geBad = true
			}
		}
		p := g.PGood
		if *geBad {
			p = g.PBad
		}
		return rng.Float64() < p
	}
	return l.PNet > 0 && rng.Float64() < l.PNet
}

// Validate reports whether the loss model is usable.
func (l LossModel) Validate() error {
	if l.PNet < 0 || l.PNet > 1 || l.PIface < 0 || l.PIface > 1 {
		return fmt.Errorf("params: loss probabilities must be in [0,1]")
	}
	if g := l.Burst; g != nil {
		for _, p := range []float64{g.PGood, g.PBad, g.PGoodToBad, g.PBadToGood} {
			if p < 0 || p > 1 {
				return fmt.Errorf("params: Gilbert-Elliott probabilities must be in [0,1]")
			}
		}
	}
	return nil
}

// NoLoss is the error-free configuration of §2.
func NoLoss() LossModel { return LossModel{} }

// TypicalEthernet is the paper's "normal circumstances" measurement:
// roughly 1 lost packet in 100 000.
func TypicalEthernet() LossModel { return LossModel{PNet: 1e-5} }

// FullSpeedInterfaces adds the order-of-magnitude-worse interface drops the
// paper measured when one station transmits at full speed to another
// (≈ 1 in 10 000).
func FullSpeedInterfaces() LossModel { return LossModel{PNet: 1e-5, PIface: 1e-4} }
