// Package vkernel is a miniature reproduction of the V distributed kernel's
// interprocess data-transfer facility (Cheriton & Zwaenepoel; the paper's
// §2): processes own pre-allocated address-space segments, and the kernel
// moves arbitrary amounts of data between the address spaces of processes
// with MoveTo, transparently across the network. The pull direction,
// MoveFrom, is the session layer's REQ-initiated pull (core.Request against
// session.Server), which runs on these same stations and over UDP.
//
// Per the V IPC contract, "the recipient has sufficient buffers allocated to
// receive the data prior to the transfer": a MoveTo call names an existing
// destination segment, so the kernel never needs intermediate copies or
// flow control — exactly the precondition the blast protocol exploits.
//
// The kernels run on the internal/sim substrate with the params.VKernel cost
// preset, whose copy constants (C = 1.83 ms, Ca = 0.67 ms) fold in the
// paper's measured kernel overhead: headers, access-right checks,
// demultiplexing and interrupt handling (§2.2). Table 3's MoveTo elapsed
// times come out of this package.
package vkernel

import (
	"errors"
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/sim"
)

// Kernel-level errors.
var (
	ErrNoProcess = errors.New("vkernel: no such process")
	ErrBounds    = errors.New("vkernel: segment out of bounds")
	ErrAccess    = errors.New("vkernel: access violation")
)

// PID identifies a process within one kernel.
type PID int

// Process is a V process: an address space plus access rights.
type Process struct {
	PID    PID
	kernel *Kernel
	space  []byte
	// writable marks segments the kernel may MoveTo into; V checks access
	// rights on every transfer (§2.2).
	writable bool
}

// Size returns the process's address-space size.
func (p *Process) Size() int { return len(p.space) }

// Bytes exposes the address space for test verification and file-server
// style use (the "disk read" fills it).
func (p *Process) Bytes() []byte { return p.space }

// Kernel is one machine's V kernel instance.
type Kernel struct {
	Name    string
	Station *sim.Station
	cluster *Cluster
	nextPID PID
	ipc     ipcState
}

// CreateProcess allocates a process with an address space of the given
// size; writable controls whether remote kernels may move data into it.
func (k *Kernel) CreateProcess(size int, writable bool) *Process {
	k.nextPID++
	return &Process{PID: k.nextPID, kernel: k, space: make([]byte, size), writable: writable}
}

// Cluster is a pair of kernels on one simulated network — the paper's
// two-workstation measurement configuration.
type Cluster struct {
	Sim         *sim.Kernel
	Net         *sim.Network
	A, B        *Kernel
	opts        Options
	transferSeq uint32
}

// Options configures a cluster.
type Options struct {
	Cost params.CostModel
	Loss params.LossModel
	Seed int64
	// Adversary, when active, installs a hostile-network model on the
	// cluster's network (reordering, duplication, corruption, jitter and
	// scripted mangling — see params.Adversary), seeded from Seed exactly
	// like simrun's simulator runs so one scenario definition behaves
	// identically on both substrates.
	Adversary params.Adversary
	// Trace receives simulator spans when set.
	Trace func(sim.Span)
}

// NewCluster builds two kernels ("alpha", "beta") on a fresh simulated
// network. Zero-value Cost defaults to the V-kernel preset.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Cost.BandwidthBitsPerSec == 0 {
		opts.Cost = params.VKernel()
	}
	sk := sim.NewKernel()
	net, err := sim.NewNetwork(sk, opts.Cost, opts.Loss, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Adversary.Active() {
		if err := net.SetAdversary(opts.Adversary, opts.Seed); err != nil {
			return nil, err
		}
	}
	net.Trace = opts.Trace
	c := &Cluster{Sim: sk, Net: net, opts: opts}
	c.A = &Kernel{Name: "alpha", Station: net.AddStation("src"), cluster: c}
	c.B = &Kernel{Name: "beta", Station: net.AddStation("dst"), cluster: c}
	return c, nil
}

// MoveOptions selects the transfer protocol for a MoveTo.
type MoveOptions struct {
	Protocol core.Protocol
	Strategy core.Strategy
	// Tr is the retransmission timeout; defaults to twice the transfer's
	// error-free blast estimate.
	Tr time.Duration
	// Window splits very large transfers into multiple blasts (§3.1.3).
	Window int
	// Controller names the rate-control policy driving blast moves
	// (core.Config.Controller): the same controller state machines the UDP
	// substrate runs, in virtual time.
	Controller string
	// Chunk is the data packet size (defaults to params.DataPacketSize).
	Chunk int
	// MaxAttempts, Linger and ReceiverIdle bound the transfer exactly like
	// the corresponding core.Config fields (zero means the core defaults).
	// Cross-substrate scenarios set them so a MoveTo gives up, lingers and
	// idles out identically to the same Config on every other substrate.
	MaxAttempts  int
	Linger       time.Duration
	ReceiverIdle time.Duration
}

// MoveResult reports one completed move.
type MoveResult struct {
	Elapsed time.Duration
	Send    core.SendResult
	Recv    core.RecvResult
	// Local reports a same-kernel move (no network involved).
	Local bool
}

// MoveTo schedules a move of n bytes from process src's address space at
// srcOff into process dst's address space at dstOff, then runs the
// simulation to completion. It is the paper's MoveTo: the source side
// drives the transfer.
func (c *Cluster) MoveTo(src *Process, srcOff int, dst *Process, dstOff, n int, opt MoveOptions) (*MoveResult, error) {
	if err := checkSegment(src, srcOff, n, false); err != nil {
		return nil, err
	}
	if err := checkSegment(dst, dstOff, n, true); err != nil {
		return nil, err
	}
	res := &MoveResult{}
	if src.kernel == dst.kernel {
		// Local case: the client's buffer is already allocated, so the
		// kernel moves the data without an intermediate copy (§2) — one
		// block move, charged at the interface-copy rate.
		c.Sim.Go("local-move", func(p *sim.Proc) {
			start := p.Now()
			p.Sleep(c.opts.Cost.CopyTime(n))
			copy(dst.space[dstOff:dstOff+n], src.space[srcOff:srcOff+n])
			res.Elapsed = p.Now() - start
			res.Local = true
		})
		if err := c.Sim.Run(); err != nil {
			return nil, err
		}
		return res, nil
	}

	cfg := c.transferConfig(src.space[srcOff:srcOff+n], opt)
	var sendErr, recvErr error
	c.Sim.Go("moveto-send", func(p *sim.Proc) {
		env := sim.NewEndpoint(p, src.kernel.Station, dst.kernel.Station)
		res.Send, sendErr = core.RunSender(env, cfg)
	})
	recvCfg := cfg
	recvCfg.Payload = nil // the receiver reassembles from packets
	c.Sim.Go("moveto-recv", func(p *sim.Proc) {
		env := sim.NewEndpoint(p, dst.kernel.Station, src.kernel.Station)
		res.Recv, recvErr = core.RunReceiver(env, recvCfg)
	})
	if err := c.Sim.Run(); err != nil {
		return nil, err
	}
	if sendErr != nil {
		return nil, fmt.Errorf("vkernel: MoveTo: %w", sendErr)
	}
	if recvErr != nil {
		return nil, fmt.Errorf("vkernel: MoveTo receiver: %w", recvErr)
	}
	copy(dst.space[dstOff:dstOff+n], res.Recv.Data)
	res.Elapsed = res.Send.Elapsed
	return res, nil
}

// transferConfig derives the core.Config for a move.
func (c *Cluster) transferConfig(payload []byte, opt MoveOptions) core.Config {
	c.transferSeq++
	chunk := opt.Chunk
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	tr := opt.Tr
	if tr == 0 {
		// Default Tr: twice the error-free blast estimate for this size.
		nPkts := (len(payload) + chunk - 1) / chunk
		tr = 2 * (time.Duration(nPkts)*(c.opts.Cost.C()+c.opts.Cost.T()) +
			c.opts.Cost.C() + 2*c.opts.Cost.Ca() + c.opts.Cost.Ta())
	}
	return core.Config{
		TransferID:     c.transferSeq,
		Bytes:          len(payload),
		ChunkSize:      chunk,
		Protocol:       opt.Protocol,
		Strategy:       opt.Strategy,
		RetransTimeout: tr,
		Window:         opt.Window,
		Controller:     opt.Controller,
		MaxAttempts:    opt.MaxAttempts,
		Linger:         opt.Linger,
		ReceiverIdle:   opt.ReceiverIdle,
		Payload:        payload,
	}
}

// checkSegment enforces V's bounds and access-right checks.
func checkSegment(p *Process, off, n int, write bool) error {
	if p == nil {
		return ErrNoProcess
	}
	if n < 0 || off < 0 || off+n > len(p.space) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, len(p.space))
	}
	if write && !p.writable {
		return fmt.Errorf("%w: pid %d is not writable", ErrAccess, p.PID)
	}
	return nil
}
