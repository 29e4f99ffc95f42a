package udplan

import (
	"net"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// Striped transfers: one logical pull split into contiguous chunk-aligned
// byte ranges, each moved by its own transfer on its own endpoint — the
// sharded server demultiplexes each stripe into its own session — running
// concurrently. The orchestration (planning, merging, partial-failure
// cancellation) is the substrate-agnostic session.PullStriped; this file
// only contributes the UDP fabric: one dialed, adversary-armed endpoint per
// stripe, one goroutine per stripe body.

// StripeOptions configures the fan-out of a striped pull.
type StripeOptions struct {
	// Streams is the number of parallel stripe sessions (default 4).
	Streams int
	// Endpoint, when non-nil, is an already-dialed endpoint to the same
	// server that stripe 0 reuses instead of dialing fresh — the endpoint a
	// preceding stat ran on, so the session the daemon opened for the stat
	// carries the first stripe too. Ownership transfers: the fan-out
	// reconfigures and closes it like every endpoint it dials itself.
	Endpoint *Endpoint
	// Batch is the per-endpoint syscall batch size (<= 1: single-syscall).
	Batch int
	// Tier caps the batched-datapath tier each stripe endpoint probes up to
	// (see Endpoint.MaxTier); the zero value probes for the best supported.
	Tier Tier
	// MTU overrides each endpoint's maximum datagram size (0: default).
	MTU int
	// SocketBuf, when positive, raises each endpoint's kernel buffers.
	SocketBuf int
	// Sink, when non-nil, receives every distinct chunk at its
	// logical-stream offset. Stripes deliver concurrently; calls are
	// serialised. When nil the transfer is checksummed and discarded.
	Sink core.ChunkSink
	// Adversary, when active, installs the seeded hostile-network model on
	// both directions of every stripe endpoint — stripe i is seeded
	// AdversarySeed+i, so one scenario definition reproduces exactly
	// (testing; see params.Adversary).
	Adversary     params.Adversary
	AdversarySeed int64
	// MangleTx and MangleRx, when non-nil, build directional per-stripe
	// mangle hooks: stripe i's endpoint gets MangleTx(i)/MangleRx(i)
	// (seeded loss injection, scripted scenarios — blastcp's
	// -drop-tx/-drop-rx). Installed after Adversary, so a directional hook
	// overrides that direction.
	MangleTx func(stripe int) func(*wire.Packet) params.Mangle
	MangleRx func(stripe int) func(*wire.Packet) params.Mangle
	// Repair enables per-stripe failure recovery (see
	// session.StripeOptions.Repair): a dead stripe session is resumed from
	// its verified frontier, on the stripe's own endpoint, instead of
	// aborting the whole pull.
	// MaxResumes, Backoff and Seed tune the resume engine; zero values take
	// core.ResumeOptions defaults.
	Repair     bool
	MaxResumes int
	Backoff    time.Duration
	Seed       int64
}

// StripedResult reports a striped pull: merged whole-transfer progress plus
// the per-stripe feed.
type StripedResult = session.StripedResult

// PullStriped requests the logical transfer cfg describes (Bytes, ChunkSize,
// Protocol, Strategy, Window, Controller, timeouts) from the daemon at addr as
// opts.Streams concurrent stripe sessions and reassembles the result. The
// server must resolve each stripe's REQ against the logical stream (see
// wire.Req.Offset); the sharded Server does this whenever its Source/Data
// handler honours the request's stripe fields. cfg.Sink and cfg.Payload are
// ignored — delivery goes through opts.Sink. If one stripe fails its
// siblings are cancelled promptly (their sockets close under them) and the
// returned error names the stripe that failed first. As Pull does, every
// stripe's REQ timer starts from the round trip the process last learned to
// the server's host (cfg.PathRTT is set from it), and what the stripes
// learn is kept for the next pull.
func PullStriped(addr string, cfg core.Config, opts StripeOptions) (StripedResult, error) {
	// An address that does not resolve fails every stripe's dial below.
	raddr, rerr := net.ResolveUDPAddr("udp", addr)
	if rerr == nil {
		cfg.PathRTT = clientPaths.Get(raddr)
	}
	f := &stripeFabric{addr: addr, opts: opts}
	res, err := session.PullStriped(f, cfg, session.StripeOptions{
		Streams:    opts.Streams,
		Sink:       opts.Sink,
		Repair:     opts.Repair,
		MaxResumes: opts.MaxResumes,
		Backoff:    opts.Backoff,
		Seed:       opts.Seed,
	})
	for _, s := range res.Stripes {
		if rerr == nil && s.Recv.SRTT > 0 {
			clientPaths.Put(raddr, s.Recv.SRTT)
		}
	}
	return res, err
}

// stripeFabric implements transport.Fabric over dialed UDP endpoints: one
// socket per stripe body, configured from StripeOptions.
type stripeFabric struct {
	addr string
	opts StripeOptions
}

// Fan runs each stripe body in its own goroutine with its own endpoint.
func (f *stripeFabric) Fan(n int, body func(i int, c transport.Client) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := f.dial(i)
			if err != nil {
				// The failure still flows through the body (see
				// transport.Fabric), so a dead stripe cancels its siblings
				// instead of letting them run their full transfers first.
				errs[i] = body(i, transport.FailedClient(err))
				return
			}
			defer c.Close()
			errs[i] = body(i, c)
		}(i)
	}
	wg.Wait()
	return errs
}

// dial opens and configures stripe i's endpoint. Stripe 0 reuses a
// pre-dialed StripeOptions.Endpoint when one was supplied.
func (f *stripeFabric) dial(i int) (transport.Client, error) {
	e := f.opts.Endpoint
	if i > 0 || e == nil {
		var err error
		if e, err = Dial(f.addr); err != nil {
			return nil, err
		}
	}
	opts := f.opts
	if opts.MTU > 0 {
		if err := e.SetMTU(opts.MTU); err != nil {
			e.Close()
			return nil, err
		}
	}
	if opts.SocketBuf > 0 {
		e.SetSocketBuffers(opts.SocketBuf)
	}
	e.MaxTier = opts.Tier
	if opts.Batch > 1 {
		e.SetBatch(opts.Batch)
	}
	if opts.Adversary.Active() {
		if err := e.SetAdversary(opts.Adversary, opts.AdversarySeed+int64(i)); err != nil {
			e.Close()
			return nil, err
		}
	}
	if opts.MangleTx != nil {
		e.MangleTx = opts.MangleTx(i)
	}
	if opts.MangleRx != nil {
		e.MangleRx = opts.MangleRx(i)
	}
	return &clientConn{e}, nil
}

// clientConn adapts a dialed endpoint to transport.Client.
type clientConn struct{ *Endpoint }

// Abort closes the underlying socket from a sibling's goroutine: the
// owning engine's pending or next socket operation fails with
// net.ErrClosed. Socket close is the only cross-goroutine-safe operation
// on an Endpoint, which is exactly why cancellation uses it.
func (c *clientConn) Abort() { c.conn.Close() }
