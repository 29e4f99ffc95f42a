// Package simrun wires the protocol engines of internal/core to the
// discrete-event substrate of internal/sim: one call runs a complete
// sender/receiver pair over a simulated network and reports both sides'
// results, reproducing the paper's two-machine measurement set-up
// (§2.1.1) in virtual time.
package simrun

import (
	"fmt"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/sim"
	"blastlan/internal/wire"
)

// Result bundles both sides of one simulated transfer.
type Result struct {
	Send core.SendResult
	Recv core.RecvResult
	// SendErr/RecvErr are the per-side errors (e.g. core.ErrGiveUp on a
	// hopeless loss rate); the transfer as a whole still simulates to
	// completion.
	SendErr error
	RecvErr error
	// Counters are the final interface counters of the two stations.
	SrcCounters sim.Counters
	DstCounters sim.Counters
	// Adv totals the events an Options.Adversary injected.
	Adv sim.AdvCounters
	// Collisions counts CSMA/CD collision events (MediumCSMACD only).
	Collisions int64
}

// Failed reports whether either side abandoned the transfer.
func (r Result) Failed() bool { return r.SendErr != nil || r.RecvErr != nil }

// Options configures a simulated transfer run.
type Options struct {
	Cost params.CostModel
	Loss params.LossModel
	Seed int64

	// Adversary, when active, installs a hostile-network model on the
	// deliver path (reordering, duplication, corruption, jitter, scripted
	// mangling — see params.Adversary), seeded from Seed independently of
	// the Loss process. It composes with Loss; scenario definitions usually
	// put all loss in Adversary.Loss and leave Loss zero.
	Adversary params.Adversary
	// Trace, if non-nil, receives activity spans for timeline rendering.
	Trace func(sim.Span)

	// Medium selects the arbitration discipline (default FIFO; set
	// sim.MediumCSMACD for the contention extension).
	Medium sim.MediumMode
	// BackgroundLoad, when positive, attaches a third-party traffic
	// generator offering this fraction of the link bandwidth in
	// DataPacketSize frames (the paper's excluded high-load regime).
	// Requires MediumCSMACD to be meaningful.
	BackgroundLoad float64

	// DropFilter injects precisely targeted losses (see sim.Network).
	DropFilter func(pkt *wire.Packet, to *sim.Station) bool
}

// Transfer simulates one complete transfer and returns both sides' results.
// The returned error reports substrate-level failures (deadlock, panic,
// invalid models); protocol-level give-ups are reported in Result.
func Transfer(cfg core.Config, opt Options) (Result, error) {
	return TransferOn(sim.NewKernel(), cfg, opt)
}

// TransferOn runs the transfer on a caller-provided kernel, which is Reset
// first. Batch drivers (Sample) reuse one kernel per worker across thousands
// of trials so its event and waiter pools stay warm instead of being rebuilt
// per transfer.
func TransferOn(k *sim.Kernel, cfg core.Config, opt Options) (Result, error) {
	var res Result
	k.Reset()
	n, err := sim.NewNetwork(k, opt.Cost, opt.Loss, opt.Seed)
	if err != nil {
		return res, err
	}
	if opt.Adversary.Active() {
		if err := n.SetAdversary(opt.Adversary, opt.Seed); err != nil {
			return res, err
		}
	}
	n.Trace = opt.Trace
	n.Medium = opt.Medium
	n.DropFilter = opt.DropFilter
	src := n.AddStation("src")
	dst := n.AddStation("dst")

	var senderDone, recvDone bool
	k.Go("sender", func(p *sim.Proc) {
		env := sim.NewEndpoint(p, src, dst)
		res.Send, res.SendErr = core.RunSender(env, cfg)
		senderDone = true
	})
	k.Go("receiver", func(p *sim.Proc) {
		env := sim.NewEndpoint(p, dst, src)
		res.Recv, res.RecvErr = core.RunReceiver(env, cfg)
		recvDone = true
	})

	if opt.BackgroundLoad > 0 {
		bg := n.AddStation("bg")
		sink := n.AddStation("sink")
		sink.SetSink()
		n.AddLoadGenerator(bg, sink, opt.BackgroundLoad, params.DataPacketSize)
		// The generator never lets the event heap drain: drive the kernel
		// step by step until both protocol sides have finished.
		for !(senderDone && recvDone) {
			more, err := k.Step()
			if err != nil {
				return res, fmt.Errorf("simrun: %w", err)
			}
			if !more {
				return res, fmt.Errorf("simrun: event heap drained before completion")
			}
		}
	} else if err := k.Run(); err != nil {
		return res, fmt.Errorf("simrun: %w", err)
	}
	res.SrcCounters = src.Counters
	res.DstCounters = dst.Counters
	res.Adv = n.Adv
	res.Collisions = n.Collisions
	return res, nil
}
