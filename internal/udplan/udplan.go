// Package udplan runs the protocol engines of internal/core over real UDP
// sockets, playing the role of the paper's standalone measurement programs
// (§2.1.1): the same sender/receiver code that executes in virtual time on
// the simulator executes here against the operating system's network stack.
//
// UDP gives exactly the substrate the paper's data-link-level experiments
// assume: unreliable, unordered-but-practically-ordered datagram delivery
// with no protocol machinery on top. All reliability comes from
// internal/core. Hostile network conditions — loss, reordering, duplication,
// bit corruption, jitter — can be injected deterministically on either side
// (MangleTx/MangleRx, or SetAdversary for a seeded params.Adversary) for
// testing recovery paths on a lossless loopback.
//
// There is one transmit path, one receive path and one serving path. Every
// sender — a client Endpoint, a server session — embeds the same txPath:
// packets are encoded into a reusable frame ring (wire.EncodeInto, no
// allocation) and flushed through the best datapath tier the socket supports
// (one GSO superbuffer, one sendmmsg, or a WriteTo loop; see Tier), cutting
// syscalls per blast window from W to roughly ⌈W/batch⌉; with batching off
// the ring has one slot and the same code runs a syscall per packet. Every
// socket is read one way: one recvmmsg (one ReadFrom where the platform has
// none) fills a receive ring, whose messages — on the GSO tier whole
// UDP_GRO-coalesced superbuffers — are taken whole, checked against their
// source once, and split into packets in place. Every Server — whatever its
// session cap and socket count — is the demux loop of internal/session over
// this package's transport.Listener, whose ring holds pooled slabs: each
// message is routed with one lookup and handed to its session uncopied; a
// session's inbox is bounded by the receive buffer the kernel granted the
// socket, and what overflows it is counted (Server.InboxDrops). A client
// Endpoint walks its own ring. Every ring's buffers — frame rings, stages,
// receive rings — are slabs of one pool, which go back when their endpoint,
// session or listener ends, so a short transfer pays for its packets, not
// for freshly zeroed rings.
// Adversary semantics are preserved bit-for-bit at every batch size: every
// packet is judged before it enters the ring, in send order.
package udplan

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/wire"
)

// MaxDatagram is the default endpoint MTU; it comfortably exceeds the
// paper's 1536-byte maximum packet (§2.1.2). SetMTU raises it for
// jumbo-frame experiments.
const MaxDatagram = 2048

// MaxMTU bounds SetMTU: the largest UDP/IPv4 datagram.
const MaxMTU = 65507

// ErrMTU reports a transfer configuration whose packets cannot fit the
// endpoint's datagram size.
var ErrMTU = errors.New("udplan: packet exceeds endpoint MTU")

// Endpoint adapts a packet socket talking to one peer to core.Env: the
// shared transmit path plus what is the client side's own — the receive
// ring, the adversary hooks, MTU and batch configuration. It must be used
// from a single goroutine, like every Env.
type Endpoint struct {
	txPath
	peerKey string // canonical comparison key of txPath.peer: messages from anyone else are skipped
	start   time.Time
	mtu     int
	keybuf  [addrKeyLen]byte

	// rx is the receive ring every read of the socket fills: one MTU slot
	// with batching off, Batch slots (superbuffer-sized when gro) with it
	// on. cur is the peer's message being walked, off the byte cursor in it.
	rx  *rxBatch
	gro bool // receive side is UDP_GRO-coalesced (GSO tier only)
	cur []byte
	seg int // cur's gso_size (0: one datagram)
	off int

	// MaxTier, when non-zero, caps the datapath tier SetBatch may probe up
	// to (the -tier flags of blastd/blastcp/lanbench land here). Set it
	// before SetBatch. The process-wide BLASTLAN_TIER environment override
	// applies on top, whichever is lower.
	MaxTier Tier

	// MangleTx and MangleRx, when non-nil, judge every packet before the
	// socket write / after the socket read, and the endpoint implements the
	// verdict: drops, single-bit corruption of the encoded datagram (the
	// peer's checksum then rejects it — the real codec fires end to end),
	// duplicate writes, reordering holds and jitter sleeps. They exist to
	// exercise recovery machinery deterministically on a lossless loopback;
	// SetAdversary installs a seeded params.Adversary on both directions.
	//
	// A held Tx datagram is released once Mangle.Hold later writes have
	// overtaken it, or when the endpoint turns to listen (a blocking Recv;
	// zero-timeout polls do not count) or closes — the moment a real
	// interface's queue would drain. A held Rx packet is released after
	// Hold later arrivals, or when a blocking read times out with the hold
	// still pending (a late arrival instead of a deadline).
	//
	// The verdict is judged before the frame enters the ring, in send order,
	// so one seeded script produces identical protocol behaviour at every
	// batch size.
	MangleTx func(*wire.Packet) params.Mangle
	MangleRx func(*wire.Packet) params.Mangle

	txHeld      []heldFrame
	txDue       []heldFrame // scratch: the transmissions one overtake releases
	rxHeld      []heldFrame
	rxReady     []heldFrame // matured holds and injected duplicates, delivered first
	rxReadyHead int         // index-advancing ring head: pops are O(1), not a slice delete
	rxPkt       wire.Packet // reusable decode target: one live packet per Env, per the Recv contract
}

// heldFrame is one packet the endpoint's adversary is holding back for
// reordering: an encoded datagram on the transmit side, a decoded packet on
// the receive side.
type heldFrame struct {
	data      []byte
	pkt       *wire.Packet
	remaining int
}

// overtake counts one packet overtaking every hold: each hold whose reorder
// depth that satisfies is appended to due, in hold order, and the holds
// still waiting are returned beside it. One linear pass with an in-place
// filter, no per-element slice deletes.
func overtake(held, due []heldFrame) ([]heldFrame, []heldFrame) {
	waiting := held[:0]
	for _, h := range held {
		h.remaining--
		if h.remaining > 0 {
			waiting = append(waiting, h)
		} else {
			due = append(due, h)
		}
	}
	return waiting, due
}

// NewEndpoint wraps an open socket talking to peer, which must be non-nil:
// an endpoint sends to, and accepts datagrams from, exactly that address.
// Batching starts off (see SetBatch).
func NewEndpoint(conn net.PacketConn, peer net.Addr) *Endpoint {
	e := &Endpoint{
		txPath:  txPath{conn: conn, raw: rawConnOf(conn), peer: peer},
		peerKey: addrKey(peer),
		start:   time.Now(),
		mtu:     MaxDatagram,
	}
	e.SetBatch(1)
	return e
}

// SetAdversary installs one seeded hostile-network model on both directions
// of the endpoint. Installing it on a single endpoint of a pair mirrors the
// simulator's network-level adversary: that endpoint sees every packet of
// the transfer exactly once.
func (e *Endpoint) SetAdversary(adv params.Adversary, seed int64) error {
	if err := adv.Validate(); err != nil {
		return err
	}
	j := adv.Mangler(seed)
	e.MangleTx, e.MangleRx = j, j
	return nil
}

// SetMTU resizes the endpoint's maximum datagram (receive buffers and
// batch frame slots) for jumbo-frame experiments. Call it before the
// transfer starts. Without it, an oversized configuration would silently
// truncate on receive — the reader's buffer clips the datagram and the
// checksum rejects every packet, an undebuggable stall; ValidateConfig
// turns that into a clear error instead.
func (e *Endpoint) SetMTU(n int) error {
	if n < wire.HeaderSize+1 || n > MaxMTU {
		return fmt.Errorf("udplan: MTU %d out of range [%d, %d]", n, wire.HeaderSize+1, MaxMTU)
	}
	// Frames already queued (possibly a GSO superbuffer in formation) were
	// encoded against the old slot geometry: they must reach the wire
	// before the rings are rebuilt, and a flush failure must surface here
	// rather than vanish into the resize.
	if err := e.FlushBatch(); err != nil {
		return err
	}
	e.mtu = n
	return e.SetBatch(e.Batch()) // re-size the rings to the new MTU
}

// SetConnBuffers raises the kernel send and receive buffers of a UDP
// socket (no-op on sockets without buffer control). Large blast windows
// need this: a ~1 KB datagram charges ~2-3 KB of skb truesize against
// SO_RCVBUF, so the ~208 KB default silently drops the tail of any window
// beyond ~90 packets — a Tr stall per window. Shared by endpoints,
// daemons and the bench harness so the sizing rationale lives once.
func SetConnBuffers(conn net.PacketConn, bytes int) {
	if uc, ok := conn.(*net.UDPConn); ok {
		uc.SetReadBuffer(bytes)
		uc.SetWriteBuffer(bytes)
	}
}

// SetSocketBuffers raises the kernel buffers of the endpoint's socket; see
// SetConnBuffers.
func (e *Endpoint) SetSocketBuffers(bytes int) { SetConnBuffers(e.conn, bytes) }

// ReadBuffer reads back the receive buffer the kernel actually granted the
// endpoint's socket (SO_RCVBUF, in the kernel's own accounting units), 0
// where it cannot be read. A sender sizing its blast window reads it as a
// stand-in for its peer's: both ends of a transfer usually ask for the same
// buffer and are clamped by the same kind of limit.
func (e *Endpoint) ReadBuffer() int { return connReadBuffer(e.raw) }

// SetBatch enables batched syscall I/O and probes the best datapath tier
// the socket supports (GSO superbuffers → sendmmsg → WriteTo loop; see
// Tier): up to n outbound frames are queued in a frame ring and flushed
// with a single sendmsg+UDP_SEGMENT or sendmmsg (FlushBatch, a full ring, a
// blocking Recv, a non-data or FlagLast packet, or Close), and the receive
// ring grows to n messages, so one recvmmsg takes up to n already-arrived
// messages — on the GSO tier with UDP_GRO enabled and superbuffer-sized
// slots, so a whole window can arrive as one coalesced message split back
// into frames in user space. n <= 1 restores one datagram per syscall each
// way (one-slot rings). On platforms without the fast paths the queue still
// forms and flushes as a WriteTo loop and the ring fills with one ReadFrom,
// preserving semantics.
//
// SetBatch is a configuration call: make it before the transfer starts
// (queued outbound frames are flushed first, and SetBatch returns that
// flush's failure once the rings are rebuilt; rebuilding the receive ring
// discards any received-but-undelivered datagrams, which between transfers
// is nothing). The old rings go back to the slab pool. On a closed endpoint
// SetBatch returns net.ErrClosed.
func (e *Endpoint) SetBatch(n int) error {
	if e.closed {
		return net.ErrClosed
	}
	err := e.setRing(pickTxTier(e.raw, n, e.MaxTier), n, e.mtu)
	wantGRO := e.tier >= TierGSO
	switch {
	case wantGRO && !e.gro:
		// GRO may be refused (UDP_SEGMENT without UDP_GRO, kernels
		// 4.18–4.20): the transmit side still rides GSO, receives stay plain
		// datagrams — the kernel segments inbound GSO skbs for non-GRO
		// sockets.
		e.gro = setGRO(e.raw, true)
	case !wantGRO && e.gro:
		// GRO is sticky on the socket: left on, MTU-sized slots would
		// truncate a coalesced superbuffer.
		setGRO(e.raw, false)
		e.gro = false
	}
	e.rx.release()
	e.rx = newRxBatch(n, e.mtu, e.gro)
	e.cur, e.off = nil, 0
	return err
}

// GRO reports whether the receive side is UDP_GRO-coalesced.
func (e *Endpoint) GRO() bool { return e.gro }

// ValidateConfig checks that the configured transfer's packets fit the
// endpoint's datagram size, returning a clear error instead of the silent
// truncating receive an oversized chunk would otherwise cause.
func (e *Endpoint) ValidateConfig(cfg core.Config) error {
	return validateConfigMTU(cfg, e.mtu)
}

// Dial opens an ephemeral UDP socket talking to remote.
func Dial(remote string) (*Endpoint, error) {
	raddr, err := net.ResolveUDPAddr("udp", remote)
	if err != nil {
		return nil, fmt.Errorf("udplan: resolve %q: %w", remote, err)
	}
	local := ":0"
	if raddr.IP != nil && raddr.IP.IsLoopback() {
		local = "127.0.0.1:0"
	}
	conn, err := net.ListenPacket("udp", local)
	if err != nil {
		return nil, fmt.Errorf("udplan: listen: %w", err)
	}
	return NewEndpoint(conn, raddr), nil
}

// Close flushes the batch queue and any held transmissions, then releases
// the underlying socket and returns the endpoint's rings to the slab pool. It
// returns the first error of the three. Close is idempotent: a closed
// endpoint releases nothing again, and Close, Send, SendAsync, FlushBatch,
// Recv, SetBatch and SetMTU on it return net.ErrClosed (Stage refuses).
func (e *Endpoint) Close() error {
	if e.closed {
		return net.ErrClosed
	}
	err := e.FlushBatch()
	if herr := e.flushTx(); err == nil {
		err = herr
	}
	if cerr := e.conn.Close(); err == nil {
		err = cerr
	}
	// The socket is closed, so no read can fill the receive ring any more.
	e.release()
	e.rx.release()
	e.cur, e.off = nil, 0
	return err
}

// Now returns the wall-clock time since the endpoint was created.
func (e *Endpoint) Now() time.Duration { return time.Since(e.start) }

// Compute is a no-op: real work takes real time.
func (e *Endpoint) Compute(time.Duration) {}

// Send encodes and transmits one packet to the peer. With no adversary
// installed that is the shared transmit sequence, txPath.Send; otherwise the
// MangleTx verdict is applied on the way out.
func (e *Endpoint) Send(p *wire.Packet) error {
	if e.closed {
		return net.ErrClosed
	}
	if !e.mangling() {
		return e.txPath.Send(p)
	}
	return e.sendMangled(p)
}

// SendAsync is Send: UDP writes do not wait for transmission anyway.
func (e *Endpoint) SendAsync(p *wire.Packet) error { return e.Send(p) }

// mangling reports whether sends go through the adversary, which judges
// packets one at a time in send order: nothing is staged past it.
func (e *Endpoint) mangling() bool { return e.MangleTx != nil || len(e.txHeld) > 0 }

// Stage implements core.Stager (see txPath.Stage).
func (e *Endpoint) Stage(p *wire.Packet) bool { return !e.mangling() && e.txPath.Stage(p) }

// Staged implements core.Stager.
func (e *Endpoint) Staged() int {
	if e.mangling() {
		return 0
	}
	return e.txPath.Staged()
}

func (e *Endpoint) sendMangled(p *wire.Packet) error {
	var m params.Mangle
	if e.MangleTx != nil {
		m = e.MangleTx(p)
	}
	// Every judged packet overtakes the held transmissions — including one
	// that is itself dropped, corrupted or held — mirroring the simulator,
	// where reaching the adversary is what counts as overtaking. Matured
	// holds go on the wire after the current packet.
	if m.Drop || m.IfaceDrop {
		return e.passTx() // injected loss: silently dropped, like a wire error
	}
	buf, err := e.encode(p)
	if err != nil {
		return err
	}
	if m.Corrupt {
		// Mangle the real datagram: the peer's decode rejects it on the
		// checksum, exactly as a line hit would play out.
		params.FlipBit(buf, m.CorruptBit)
	}
	if m.Delay > 0 && m.Hold == 0 { // a hold already delays (see Mangle.Delay)
		time.Sleep(m.Delay)
	}
	if m.Hold > 0 {
		held := append([]byte(nil), buf...)
		// A duplicate of a held packet still goes out now, overtaking its
		// held twin, and — as on the simulator — ahead of any holds this
		// arrival matures. The new hold must not overtake itself, so it is
		// appended after passTx.
		if m.Duplicate {
			if err := e.ring.commit(len(buf)); err != nil {
				return err
			}
		}
		if err := e.passTx(); err != nil {
			return err
		}
		e.txHeld = append(e.txHeld, heldFrame{data: held, remaining: m.Hold})
		return e.flushControl(p)
	}
	if err := e.ring.commit(len(buf)); err != nil {
		return err
	}
	if m.Duplicate {
		if err := e.ring.enqueueCopy(buf); err != nil {
			return err
		}
	}
	if err := e.passTx(); err != nil {
		return err
	}
	return e.flushControl(p)
}

// passTx records one datagram overtaking the held transmissions and queues
// any whose reorder depth is now satisfied behind it in the frame ring.
func (e *Endpoint) passTx() error {
	e.txHeld, e.txDue = overtake(e.txHeld, e.txDue[:0])
	return e.enqueueHeld(e.txDue)
}

// flushTx releases every held transmission, in hold order, through the
// frame ring and flushes it: the sender has stopped transmitting (it is
// turning to listen, or closing), so a real interface's queue would drain
// now.
func (e *Endpoint) flushTx() error {
	err := e.enqueueHeld(e.txHeld)
	e.txHeld = e.txHeld[:0]
	if ferr := e.ring.Flush(); err == nil {
		err = ferr
	}
	return err
}

// enqueueHeld queues released transmissions behind whatever the frame ring
// holds, in order, and returns the first failure.
func (e *Endpoint) enqueueHeld(hs []heldFrame) error {
	var firstErr error
	for _, h := range hs {
		if err := e.ring.enqueueCopy(h.data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv returns the next valid packet, applying the MangleRx verdict to every
// arrival. timeout < 0 waits forever. Malformed datagrams and datagrams from
// anyone but the peer are skipped. On expiry the error satisfies
// errors.Is(err, os.ErrDeadlineExceeded).
func (e *Endpoint) Recv(timeout time.Duration) (*wire.Packet, error) {
	// Anything queued for batch transmission is committed traffic: it must
	// reach the wire before the endpoint waits for responses to it.
	if err := e.FlushBatch(); err != nil {
		return nil, err
	}
	// A blocking listen means the sender has turned to listen: its interface
	// queue drains, releasing any transmissions held for reordering. A
	// zero-timeout poll (sliding window draining acks between sends) is not
	// a turn — holds keep waiting for overtaking traffic, as on the
	// simulator.
	if timeout != 0 {
		if err := e.flushTx(); err != nil {
			return nil, err
		}
	}
	armed := false
	for {
		// Matured holds and injected duplicates deliver before the socket
		// is read again.
		if e.readyCount() > 0 {
			return e.popReady(), nil
		}
		if e.off >= len(e.cur) {
			// The deadline is armed once, and only when the socket has to
			// be read: a message already in the ring costs no clock read
			// and no deadline change.
			if !armed && !e.rx.pending() {
				var deadline time.Time
				if timeout >= 0 {
					deadline = time.Now().Add(timeout)
				}
				if err := e.conn.SetReadDeadline(deadline); err != nil {
					return nil, err
				}
				armed = true
			}
			i, err := e.rx.take(e.conn, e.raw, &e.keybuf)
			if err != nil {
				if timeout != 0 && len(e.rxHeld) > 0 && core.IsTimeout(err) {
					// A blocking listen went quiet with packets still held:
					// they arrive late instead of never (holds delay, they
					// do not lose). Zero-timeout polls do not release holds.
					e.rxReady = append(e.rxReady, e.rxHeld...)
					e.rxHeld = e.rxHeld[:0]
					return e.popReady(), nil
				}
				return nil, err
			}
			// One message has one source, however many datagrams the
			// kernel coalesced into it: checked once, skipped whole.
			if string(e.keybuf[:]) != e.peerKey {
				continue
			}
			e.cur, e.seg = e.rx.msg(i)
			e.off = 0
		}
		data := splitSeg(e.cur, e.seg, &e.off)
		pkt := &e.rxPkt
		if derr := wire.DecodeInto(pkt, data); derr != nil {
			continue // not ours / corrupted: the checksum did its job
		}
		var m params.Mangle
		if e.MangleRx != nil {
			m = e.MangleRx(pkt)
		}
		// As on the transmit side, every judged arrival overtakes the held
		// receptions, whatever its own verdict.
		if m.Drop || m.IfaceDrop {
			e.passRx()
			continue
		}
		if m.Corrupt {
			// Mangle the raw datagram and re-run the real codec: the flip
			// must evade the checksum to survive.
			params.FlipBit(data, m.CorruptBit)
			if derr := wire.DecodeInto(pkt, data); derr != nil {
				e.passRx()
				continue
			}
		}
		if m.Delay > 0 && m.Hold == 0 { // a hold already delays
			time.Sleep(m.Delay)
		}
		if m.Duplicate || m.Hold > 0 {
			// Queued across Recv calls: detach from the reused buffers.
			out := pkt.Clone()
			if m.Duplicate {
				e.rxReady = append(e.rxReady, heldFrame{pkt: out.Clone()})
			}
			if m.Hold > 0 {
				// Existing holds are overtaken first; the new hold must not
				// overtake itself.
				e.passRx()
				e.rxHeld = append(e.rxHeld, heldFrame{pkt: out, remaining: m.Hold})
				continue
			}
			e.passRx()
			return out, nil
		}
		e.passRx()
		// The packet aliases this endpoint's receive buffers (and the one
		// decode value), all stable until the next Recv or Close — the same
		// contract every Env in this repository provides. No per-packet
		// allocation.
		return pkt, nil
	}
}

// readyCount reports how many packets are queued for delivery.
func (e *Endpoint) readyCount() int { return len(e.rxReady) - e.rxReadyHead }

// popReady returns the oldest packet queued for delivery (matured holds and
// injected duplicates). The head index advances instead of re-slicing the
// queue, so draining n queued packets is O(n), not O(n²) — deep reorder
// holds used to pay a full copy per pop.
func (e *Endpoint) popReady() *wire.Packet {
	pkt := e.rxReady[e.rxReadyHead].pkt
	e.rxReady[e.rxReadyHead] = heldFrame{}
	e.rxReadyHead++
	if e.rxReadyHead == len(e.rxReady) {
		e.rxReady = e.rxReady[:0]
		e.rxReadyHead = 0
	}
	return pkt
}

// passRx records one arrival overtaking the held receptions; matured holds
// queue for delivery on the next Recv calls.
func (e *Endpoint) passRx() { e.rxHeld, e.rxReady = overtake(e.rxHeld, e.rxReady) }

// SeededDrop returns a deterministic mangle hook losing packets with
// probability p. Each returned function owns its generator, so install
// separate instances for Tx and Rx.
func SeededDrop(p float64, seed int64) func(*wire.Packet) params.Mangle {
	rng := rand.New(rand.NewSource(seed))
	return func(*wire.Packet) params.Mangle {
		return params.Mangle{Drop: rng.Float64() < p}
	}
}

// Push transfers the configured payload to the peer: announce, wait for the
// go-ahead, blast (or whatever cfg.Protocol says). The configuration is
// validated against the endpoint's MTU first.
func Push(e *Endpoint, cfg core.Config) (core.SendResult, error) {
	if err := e.ValidateConfig(cfg); err != nil {
		return core.SendResult{}, err
	}
	return core.Push(e, cfg)
}

// clientPaths is the process's client half of the path memory: per server
// host, the round trip the last pull's REQ learned (core.RecvResult.SRTT),
// which the next pull from that host starts its REQ timer from
// (core.Config.PathRTT). Servers keep the other half (session.Server).
var clientPaths session.PathTable

// Pull requests the configured transfer from the peer and receives it. The
// configuration is validated against the endpoint's MTU first. The REQ's
// timer starts from the round trip the process's last pull learned to the
// peer's host (cfg.PathRTT is set from it), and this pull's is kept for the
// next.
func Pull(e *Endpoint, cfg core.Config) (core.RecvResult, error) {
	if err := e.ValidateConfig(cfg); err != nil {
		return core.RecvResult{}, err
	}
	cfg.PathRTT = clientPaths.Get(e.peer)
	res, err := core.Request(e, cfg)
	if res.SRTT > 0 {
		clientPaths.Put(e.peer, res.SRTT)
	}
	return res, err
}
