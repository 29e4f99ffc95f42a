// Package blastlan is a reproduction of Willy Zwaenepoel's "Protocols for
// Large Data Transfers over Local Networks" (SIGCOMM 1985): the blast,
// sliding-window and stop-and-wait protocol classes, the four blast
// retransmission strategies, the closed-form cost models, and the
// measurement substrates — a cycle-accurate discrete-event simulator of the
// paper's SUN/3-Com/Ethernet hardware, a miniature V kernel with
// MoveTo/MoveFrom, and a real UDP transport running the identical protocol
// code.
//
// This file is the public facade: it re-exports the pieces a downstream
// user composes, so examples and applications only import "blastlan".
//
//	cfg := blastlan.Config{Bytes: 64 << 10, Protocol: blastlan.Blast,
//		Strategy: blastlan.GoBackN, RetransTimeout: 200 * time.Millisecond}
//	res, err := blastlan.Simulate(cfg, blastlan.SimOptions{Cost: blastlan.Standalone3Com()})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package blastlan

import (
	"net"
	"time"

	"blastlan/internal/analytic"
	"blastlan/internal/core"
	"blastlan/internal/disk"
	"blastlan/internal/mc"
	"blastlan/internal/params"
	"blastlan/internal/simrun"
	"blastlan/internal/udplan"
	"blastlan/internal/vkernel"
)

// Core protocol types.
type (
	// Config describes one transfer; both sides must agree on it (the
	// paper's pre-allocated-buffer contract).
	Config = core.Config
	// Protocol selects stop-and-wait, sliding window or blast.
	Protocol = core.Protocol
	// Strategy selects the blast retransmission strategy (§3.2).
	Strategy = core.Strategy
	// Env is the substrate interface protocol engines run on.
	Env = core.Env
	// SendResult and RecvResult report the two sides of a transfer.
	SendResult = core.SendResult
	RecvResult = core.RecvResult
)

// Protocol classes (Figure 1 + the double-buffered variant of Figure 3.d).
const (
	StopAndWait   = core.StopAndWait
	SlidingWindow = core.SlidingWindow
	Blast         = core.Blast
	BlastAsync    = core.BlastAsync
)

// Blast retransmission strategies, in the paper's §3.2 order.
const (
	FullNoNak = core.FullNoNak
	FullNak   = core.FullNak
	GoBackN   = core.GoBackN
	Selective = core.Selective
)

// Cost, loss and hostile-network models.
type (
	// CostModel holds the per-packet cost constants (C, Ca, T, Ta, τ).
	CostModel = params.CostModel
	// LossModel describes wire and interface loss processes.
	LossModel = params.LossModel
	// GilbertElliott is the two-state burst-loss chain.
	GilbertElliott = params.GilbertElliott
	// Adversary is the full hostile-network model: loss plus seeded
	// reordering, duplication, bit corruption, jitter and scripted
	// per-packet mangling. One definition runs on the simulator, the V
	// kernel and real UDP endpoints.
	Adversary = params.Adversary
	// Mangle is the adversary's per-packet verdict.
	Mangle = params.Mangle
)

// Hardware presets.
var (
	// Standalone3Com reproduces §2.1's measured constants.
	Standalone3Com = params.Standalone3Com
	// VKernel folds in the §2.2 kernel overhead (Table 3).
	VKernel = params.VKernel
	// ExcelanDMA models the §2.1.3 slow-on-board-copy DMA board.
	ExcelanDMA = params.ExcelanDMA
	// ModernGigabit inverts the copy/wire ratio (ablation).
	ModernGigabit = params.ModernGigabit
	// DoubleBuffered returns a copy of a model with two transmit buffers.
	DoubleBuffered = params.DoubleBuffered
)

// Loss presets.
var (
	// NoLoss is the error-free §2 configuration.
	NoLoss = params.NoLoss
	// TypicalEthernet is the paper's measured ≈1e-5 network loss.
	TypicalEthernet = params.TypicalEthernet
	// FullSpeedInterfaces adds the ≈1e-4 interface drops of §3.
	FullSpeedInterfaces = params.FullSpeedInterfaces
)

// Simulation.
type (
	// SimOptions configures a simulated transfer.
	SimOptions = simrun.Options
	// SimResult bundles both sides of a simulated transfer.
	SimResult = simrun.Result
	// SampleStats aggregates a batch of independent seeded transfers.
	SampleStats = simrun.Stats
	// Scenario is a declarative hostile-network experiment runnable on all
	// three substrates (RunSim, RunVKernel, RunUDP, Sample).
	Scenario = simrun.Scenario
	// ScenarioOutcome is the substrate-independent projection of one
	// scenario run, used by the cross-substrate conformance suite.
	ScenarioOutcome = simrun.Outcome
)

// Simulate runs one complete transfer over the discrete-event simulator and
// returns both sides' results.
func Simulate(cfg Config, opt SimOptions) (SimResult, error) {
	return simrun.Transfer(cfg, opt)
}

// SimulateSample runs n independent transfers (trial i seeded opt.Seed+i)
// fanned across all processors and merges the results; the output is
// bit-identical to a sequential run of the same trials.
func SimulateSample(cfg Config, opt SimOptions, n int) (SampleStats, error) {
	return simrun.Sample(cfg, opt, n)
}

// Analytic closed forms (§2.1.3, §3.1–3.2).
var (
	// TimeStopAndWait, TimeSlidingWindow, TimeBlast and TimeBlastDouble are
	// the error-free elapsed-time formulas.
	TimeStopAndWait = analytic.TimeStopAndWait
	TimeSlidingWin  = analytic.TimeSlidingWindow
	TimeBlast       = analytic.TimeBlast
	TimeBlastDouble = analytic.TimeBlastDouble
	// Utilization is the blast network-utilization expression.
	Utilization = analytic.Utilization
	// ExpectedTimeStopAndWait and ExpectedTimeBlast are §3.1's expected
	// times under loss.
	ExpectedTimeStopAndWait = analytic.ExpectedTimeStopAndWait
	ExpectedTimeBlast       = analytic.ExpectedTimeBlast
	// StdDevFullNoNak and StdDevFullNak are §3.2's deviation models.
	StdDevFullNoNak = analytic.StdDevFullNoNak
	StdDevFullNak   = analytic.StdDevFullNak
)

// Monte Carlo (the paper's §3.2.3 method).
type (
	// MCParams configures a Monte-Carlo estimate.
	MCParams = mc.Params
	// MCEstimate summarises the sampled distribution.
	MCEstimate = mc.Estimate
)

// MonteCarloBlast estimates the elapsed-time distribution of a blast
// transfer under the configured retransmission strategy.
func MonteCarloBlast(p MCParams) (MCEstimate, error) { return mc.Blast(p) }

// MonteCarloStopAndWait estimates the stop-and-wait distribution.
func MonteCarloStopAndWait(p MCParams) (MCEstimate, error) { return mc.StopAndWait(p) }

// V kernel substrate (§2.2).
type (
	// Cluster is a pair of V kernels on one simulated network.
	Cluster = vkernel.Cluster
	// ClusterOptions configures the cluster.
	ClusterOptions = vkernel.Options
	// MoveOptions selects the protocol for a MoveTo/MoveFrom.
	MoveOptions = vkernel.MoveOptions
	// VProcess is a V process: an address space plus access rights.
	VProcess = vkernel.Process
	// VMessage is a fixed 32-byte V IPC message (the Send/Receive/Reply
	// exchange that precedes a MoveTo, §2).
	VMessage = vkernel.Message
)

// NewCluster builds two kernels on a fresh simulated network.
func NewCluster(opt ClusterOptions) (*Cluster, error) { return vkernel.NewCluster(opt) }

// File service and storage (the paper's motivating application).
type (
	// FileServer serves files over IPC + disk + MoveTo.
	FileServer = vkernel.FileServer
	// DiskGeometry models the file server's disk timing.
	DiskGeometry = disk.Geometry
)

// NewFileServer attaches a file server to a kernel with the given disk.
func NewFileServer(k *vkernel.Kernel, geom DiskGeometry) (*FileServer, error) {
	return vkernel.NewFileServer(k, geom)
}

// Disk presets.
var (
	// FujitsuEagle is a canonical 1985 server disk.
	FujitsuEagle = disk.FujitsuEagle
	// ModernNVMe is the ablation counterpart.
	ModernNVMe = disk.ModernNVMe
)

// Real UDP transport.
type (
	// UDPEndpoint adapts a UDP socket to the protocol engines.
	UDPEndpoint = udplan.Endpoint
	// UDPServer answers push and pull requests on a socket.
	UDPServer = udplan.Server
)

// DialUDP opens an endpoint talking to remote ("host:port").
func DialUDP(remote string) (*UDPEndpoint, error) { return udplan.Dial(remote) }

// NewUDPServer wraps an open packet socket in a transfer server.
func NewUDPServer(conn net.PacketConn) *UDPServer { return udplan.NewServer(conn) }

// PushUDP transfers cfg.Payload to the endpoint's peer.
func PushUDP(e *UDPEndpoint, cfg Config) (SendResult, error) { return udplan.Push(e, cfg) }

// PullUDP requests the configured transfer from the peer.
func PullUDP(e *UDPEndpoint, cfg Config) (RecvResult, error) { return udplan.Pull(e, cfg) }

// Striped transfers: one logical pull fanned out across parallel stripe
// sessions, reassembled by offset (set cfg.Controller to a registered
// rate-control policy — "aimd", "autotune" — for per-stripe rate
// control).
type (
	// StripeOptions configures the fan-out of a striped pull.
	StripeOptions = udplan.StripeOptions
	// StripedResult reports a striped pull, with the per-stripe feed.
	StripedResult = udplan.StripedResult
)

// PullUDPStriped requests the logical transfer from the daemon at addr as
// parallel stripe sessions and reassembles the result.
func PullUDPStriped(addr string, cfg Config, opts StripeOptions) (StripedResult, error) {
	return udplan.PullStriped(addr, cfg, opts)
}

// TransferChecksum is the whole-transfer software checksum (§4).
func TransferChecksum(data []byte) uint16 { return core.TransferChecksum(data) }

// DefaultTr returns a sensible retransmission timeout for a transfer of n
// data packets on the given hardware: twice the error-free blast time, the
// scale Figure 5 uses.
func DefaultTr(m CostModel, n int) time.Duration { return 2 * analytic.TimeBlast(m, n) }
