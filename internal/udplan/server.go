package udplan

import (
	"fmt"
	"net"
	"sync/atomic"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// Server answers transfer requests on one socket (or several SO_REUSEPORT
// siblings). It has one serving path: the substrate-agnostic session layer
// (internal/session) runs its demux loop over each socket's
// transport.Listener, routing bursts by source address into per-session
// goroutines — each running the unmodified core protocol engines over its
// own channel-fed Env with its own transmit path (txPath). Concurrency only
// sets the session cap: at the default of one, a transfer in progress owns
// the server — the paper's world of two matched machines — and any other
// client is told BUSY/RETRY-AFTER until it finishes. Given multiple sockets
// (NewMultiServer over ListenReuseport), Run drives one independent demux
// loop per socket with kernel-hashed flow steering — the single-demux
// bottleneck removed once per-packet cost is amortised. All the serving
// machinery (a session table per demux loop, REQ-only admission, streaming
// handlers, stripe-range resolution, graceful drain) is shared with the
// simulator substrate; only the socket/syscall specifics live here.
type Server struct {
	// The shared serving machinery — handler hooks, limits, drain and
	// accounting are session.Server's, documented there.
	session.Server

	// Batch enables batched syscall I/O (tiered frame rings per session, a
	// recvmmsg demux ring of that many messages) with the given batch size;
	// <= 1 is a syscall per packet.
	Batch int

	// MTU overrides the maximum datagram size (default MaxDatagram) for
	// jumbo-frame serving. Requests whose packets exceed it are rejected
	// with a clear log line instead of stalling on truncated reads.
	MTU int

	// MaxTier, when non-zero, caps the datapath tier the server probes up
	// to (blastd's -tier flag lands here); the BLASTLAN_TIER environment
	// override applies on top.
	MaxTier Tier

	// LineRate, when positive, models each socket as a serializing link of
	// this many egress bytes per second, shared by every session on it —
	// loopback has no NIC, so topology benchmarks (fan-out trees vs N
	// independent pulls) need the modeled link to measure anything but CPU.
	// Each socket of a MultiServer gets its own line, like ports on a
	// switch.
	LineRate int

	conns      []net.PacketConn
	inboxDrops atomic.Int64
}

// TransferStats reports one completed transfer for the Done hook.
type TransferStats = session.TransferStats

// NewServer wraps a socket in a transfer server.
func NewServer(conn net.PacketConn) *Server {
	return &Server{conns: []net.PacketConn{conn}}
}

// NewMultiServer wraps several sockets bound to the same address
// (ListenReuseport) in one transfer server: Run drives an independent demux
// loop per socket, with the kernel steering each client flow to exactly one
// of them. The session cap (Concurrency) and the accounting (Served, Done)
// are shared across the loops.
func NewMultiServer(conns ...net.PacketConn) *Server {
	return &Server{conns: conns}
}

// Close closes every socket the server owns (Run then returns).
func (s *Server) Close() error {
	var firstErr error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Server) mtu() int {
	if s.MTU > 0 {
		return s.MTU
	}
	return MaxDatagram
}

// Tier reports the datapath tier the server's first socket probes to at
// the configured batch size — what Run's sessions will use.
func (s *Server) Tier() Tier {
	return pickTxTier(rawConnOf(s.conns[0]), s.Batch, s.MaxTier)
}

// InboxDrops reports how many datagrams the demux loops have dropped because
// the session they belonged to had its inbox full: the receiver-overrun
// drops that happen in user space, where the kernel's RcvbufErrors counter
// cannot see them.
func (s *Server) InboxDrops() int64 { return s.inboxDrops.Load() }

// Run serves requests until the socket is closed (or Idle expires with no
// session in flight, or a drain completes). It returns nil on a clean close.
func (s *Server) Run() error {
	mtu := s.mtu()
	if s.Validate == nil {
		s.Validate = func(c core.Config) error { return validateConfigMTU(c, mtu) }
	}
	ls := make([]transport.Listener, len(s.conns))
	for i, conn := range s.conns {
		sl := newServerListener(conn, s.Batch, mtu, s.MaxTier)
		sl.line = newLinePacer(s.LineRate)
		sl.logf = s.Logf
		sl.drops = &s.inboxDrops
		ls[i] = sl
	}
	return s.Server.RunAll(ls...)
}

// validateConfigMTU checks that a transfer's packets fit datagrams of the
// given size.
func validateConfigMTU(cfg core.Config, mtu int) error {
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	if need := wire.HeaderSize + chunk; need > mtu {
		return fmt.Errorf("%w: packet bytes %d (header %d + chunk %d) > MTU %d; raise SetMTU or shrink ChunkSize",
			ErrMTU, need, wire.HeaderSize, chunk, mtu)
	}
	return nil
}
