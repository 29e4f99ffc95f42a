// Package core implements the paper's three protocol classes — stop-and-wait,
// sliding window and blast — plus the four blast retransmission strategies of
// §3.2 and the multiblast scheme of §3.1.3.
//
// Protocol engines are plain serial programs (the paper implements them as
// busy-wait standalone programs and interrupt-level kernel code; neither has
// process scheduling) written against the Env interface. The same code runs
// on two substrates:
//
//   - internal/sim provides a virtual-time Env that charges the paper's copy
//     and wire costs, so simulated elapsed times reproduce §2.1.3's closed
//     forms exactly;
//   - internal/udplan provides a wall-clock Env over real UDP sockets.
package core

import (
	"errors"
	"os"
	"time"

	"blastlan/internal/wire"
)

// Env is the substrate a protocol engine runs on. Implementations must be
// used from a single goroutine (the paper's protocols are strictly serial).
//
// Every Env keeps one packet-ownership rule, as a real interface does: Send
// and SendAsync consume the packet (encode it, or copy it into the medium)
// before they return, so the engines reuse one data and one ack packet per
// transfer; and the packet Recv returns stays valid until the next Recv or
// Close (a closed UDP endpoint's receive buffers go back to a shared pool).
type Env interface {
	// Now returns the current time (virtual or wall-clock) since an
	// arbitrary epoch.
	Now() time.Duration

	// Compute accounts for d of protocol-internal CPU work. Simulated
	// environments advance the virtual clock; real environments may treat
	// it as a no-op because real work takes real time.
	Compute(d time.Duration)

	// Send transmits a packet to the peer and returns when the transmission
	// has left the interface (the paper's single-buffered busy-wait
	// semantics).
	Send(p *wire.Packet) error

	// SendAsync hands a packet to the interface and returns once it has
	// been copied in, allowing copy/transmit overlap on double-buffered
	// interfaces (§2.1.3). On substrates without that distinction it is
	// equivalent to Send.
	SendAsync(p *wire.Packet) error

	// Recv returns the next packet from the peer. timeout < 0 waits
	// forever. On expiry it returns an error satisfying
	// errors.Is(err, os.ErrDeadlineExceeded).
	Recv(timeout time.Duration) (*wire.Packet, error)
}

// Datapath is the one optional capability of a substrate: a batching
// transmit side. A substrate without it — the simulator, which has no
// syscalls to amortise — sends every packet as it is handed over.
//
// FlushBatch writes every queued packet to the wire, in the order it was
// queued. Substrates must also flush implicitly when their queue is full,
// before blocking in Recv and on close, so the explicit call is a latency
// optimisation, never a correctness requirement. The engines guarantee a
// useful geometry: every mid-window data frame of a transfer is the same
// size (ChunkSize), and the one shorter data frame — the transfer's tail
// chunk — always carries FlagLast (fillData marks seq == total-1 as last
// even mid-window), which substrates flush separately along with all
// control traffic. A flush therefore carries equal-sized frames with at
// most one shorter trailing frame, exactly the segment layout a GSO
// superbuffer may carry — see wire.FrameBytes and
// TestFlushGeometryGSOCompatible.
//
// Where a window's frames flush is the substrate's business: the sender
// flushes once per window, no policy splits a window into more syscalls,
// and nothing spaces its packets in time.
type Datapath interface {
	FlushBatch() error
}

// Stager is the second optional capability, beside Datapath: a substrate
// that can take a packet fully encoded into a second frame ring — the stage
// — without sending it. The blast sender fills the stage with the next
// window's unreliable packets while it would otherwise idle waiting for the
// current window's response (the paper's Figure 3 overlap, inside one host),
// and releases it when that window's turn comes. Nothing staged reaches the
// wire before ReleaseStaged. The simulator and the V kernel model have no
// stage, so virtual-time results do not depend on it.
//
// Stage reports false when the substrate will not stage (the stage is full,
// or packets are being mangled one by one). Staged is how many
// frames a release may put on the wire now — zero whenever Stage would
// refuse. ReleaseStaged sends the first n staged frames, in staging order and
// in the flush units of ordinary sends, and forgets the rest.
type Stager interface {
	Stage(p *wire.Packet) bool
	Staged() int
	ReleaseStaged(n int) error
}

// FlushBatch flushes env's outbound batch queue if the substrate batches;
// on all other substrates it is a no-op. The blast sender calls it once per
// window, between the unreliable packets and the reliable last, so the
// window is on the wire before the response timer starts.
func FlushBatch(env Env) error {
	if dp, ok := env.(Datapath); ok {
		return dp.FlushBatch()
	}
	return nil
}

// IsTimeout reports whether err is a receive-deadline expiry.
func IsTimeout(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }

// ErrGiveUp is returned by senders that exhaust Config.MaxAttempts without
// completing the transfer (the paper's protocols never give up; the bound
// exists so that simulations and real transfers terminate).
var ErrGiveUp = errors.New("core: transfer abandoned after maximum attempts")

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("core: invalid config")
