// Package transport defines the narrow substrate interface the shared
// session layer (internal/session) is written against. The paper defines
// its protocols independently of the medium; this package does the same for
// the machinery *around* the protocols — serving many clients at once,
// fanning a striped pull across concurrent sessions — so that one server
// and one stripe orchestrator run unchanged on every substrate:
//
//   - internal/udplan implements it over real UDP sockets (goroutines,
//     wall-clock deadlines, sendmmsg/recvmmsg batching);
//   - internal/sim implements it in virtual time (simulator processes,
//     deterministic handoff scheduling), which is what makes many-client
//     scale behaviour — session capacity, shard contention, fairness —
//     reproducible bit for bit.
//
// The protocol engines themselves still run against core.Env; this package
// adds only what a daemon needs beyond a single two-party conversation:
// demultiplexed arrivals (Listener), per-session delivery and concurrency
// (Conn), and client-side fan-out (Fabric, Client).
//
// A session is one transfer, not one conn: listeners key arrivals by source
// and transfer id (wire.Packet.Trans), so a client conn outlives its
// sessions on every substrate. A resumed pull asks for a fresh transfer on
// the conn it already has.
package transport

import (
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// Peer identifies a remote party for logs and transfer stats. net.Addr
// satisfies it on socket substrates; a simulated station satisfies it with
// its name.
type Peer interface{ String() string }

// Message is one substrate-owned arrival in flight from the demux loop to a
// session conn. Substrates define their own concrete type — a transient
// datagram view for UDP, a decoded packet for the simulator — and the
// session layer treats it as opaque freight: it either routes the message
// with Conn.Deliver or drops it on the floor.
type Message = any

// Inbound is one demultiplexed arrival: the canonical identity of its
// source and transfer, plus the substrate freight. Key aliases
// listener-owned storage and is valid only until the next Accept; callers
// that retain it must copy.
type Inbound struct {
	Key []byte
	Msg Message
}

// Listener is a substrate's server-side receive surface. Exactly one demux
// loop (session.Server.Run) drives it, strictly serially: Accept, then
// optionally ReqOf/Open for the arrival just accepted, then Deliver on some
// conn. Implementations may therefore reuse buffers across calls and
// remember the most recent arrival's source for Open.
type Listener interface {
	// Accept waits up to idle (<= 0: forever) for the next arrival from any
	// source. On an expired idle bound the error satisfies core.IsTimeout;
	// a closed listener reports net.ErrClosed.
	Accept(idle time.Duration) (Inbound, error)

	// ReqOf decodes msg as a session-opening request. Only a checksum-valid
	// REQ packet may open a session: stragglers from finished transfers
	// cannot claim server state.
	ReqOf(msg Message) (wire.Req, bool)

	// Open creates the session conn for the source of the most recent
	// Accept. It fails only when the substrate cannot resolve that source
	// into a deliverable peer.
	Open() (Conn, Peer, error)

	// Drain blocks until every session body spawned by every Conn has
	// returned. The demux loop calls it once, after it stops accepting.
	Drain()
}

// BusyReplier is an optional Listener extension: ReplyBusy sends a
// best-effort BUSY/RETRY-AFTER refusal to the source of the most recent
// Accept, telling a client whose valid REQ was refused (session cap
// reached, server draining) to back off retryAfter before asking again
// instead of burning its REQ retransmission budget. msg is the refused
// arrival (the substrate recovers the transfer id from it). Like any
// datagram the reply may be lost; the client's next REQ re-elicits it.
type BusyReplier interface {
	ReplyBusy(msg Message, retryAfter time.Duration) error
}

// Conn is one admitted session's server-side channel. The demux loop feeds
// it with Deliver; the session body consumes through the core.Env that
// Spawn provides.
type Conn interface {
	// Deliver hands an arrival to the session's inbox. It must not block:
	// an overflowing inbox drops the message, an interface drop the
	// protocol recovers from.
	Deliver(msg Message)

	// Spawn runs the session body in the substrate's own thread of control
	// — a goroutine on sockets, a simulator process in virtual time — and
	// hands it the conn's protocol environment. The substrate performs its
	// own teardown (flushing batched frames, recycling buffers) after the
	// body returns.
	Spawn(name string, body func(env core.Env))

	// Hangup closes the inbox from the demux side: the session's next Recv
	// fails with net.ErrClosed and the body unwinds. Used at server
	// shutdown, when the demux loop has already stopped.
	Hangup()
}

// Client is a dialed client-side conn: the environment a protocol engine
// runs on, plus teardown. Close releases the conn from its own thread of
// control; Abort unblocks a running engine promptly from a sibling's thread
// (the engine's pending or next Send/Recv fails), which is how a striped
// pull cancels its remaining stripes when one fails.
type Client interface {
	core.Env
	Close() error
	Abort()
}

// Fabric fans concurrent client sessions onto a substrate: Fan runs
// body(i, client_i) for every i in [0, n) concurrently, dialing one fresh
// client conn per body, and returns when every body has returned; errs[i]
// is what body(i, ·) returned. A fabric that fails to dial client i still
// invokes the body — with FailedClient(err) — so failures flow through the
// same path as any other session error and orchestrators can react (cancel
// siblings) promptly. Fabrics close each client after its body returns, so
// bodies only Close early when they want to.
type Fabric interface {
	Fan(n int, body func(i int, c Client) error) []error
}

// FailedClient returns a Client whose every protocol operation fails with
// err: the stand-in a Fabric hands the body when dialing (or preparing)
// client i failed, so the failure surfaces through the body's normal error
// path instead of bypassing it.
func FailedClient(err error) Client { return failedClient{err} }

type failedClient struct{ err error }

func (c failedClient) Now() time.Duration                       { return 0 }
func (c failedClient) Compute(time.Duration)                    {}
func (c failedClient) Send(*wire.Packet) error                  { return c.err }
func (c failedClient) SendAsync(*wire.Packet) error             { return c.err }
func (c failedClient) Recv(time.Duration) (*wire.Packet, error) { return nil, c.err }
func (c failedClient) Close() error                             { return nil }
func (c failedClient) Abort()                                   {}
