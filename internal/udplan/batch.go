package udplan

import (
	"encoding/binary"
	"net"
	"sync"
	"syscall"
)

// This file holds the platform-independent half of the batched datapath:
// the reusable frame rings that amortise one syscall across a whole blast
// window, and the slab pool their buffers come from. The platform-specific
// sendmmsg/recvmmsg wrappers live in mmsg_linux.go (with fallbacks in
// mmsg_fallback.go); when they are unavailable the rings still form and
// flush as plain WriteTo loops and fill with one ReadFrom, so behaviour is
// identical everywhere and only the syscall count differs.

// slab is one buffer of the datapath's slab pool: the backing array of a
// frame ring or a stage, or one message buffer of a receive ring. It
// remembers the pool it goes back to, and holds whatever its last owner
// left: every ring writes a slot before it reads it. A demux ring's slab,
// handed to a session, also carries the burst it holds (see burst).
type slab struct {
	buf    []byte
	pool   *sync.Pool
	n, seg int32 // demux bursts only: bytes received, gso_size they were coalesced at
}

// slabPools is the one pool every byte buffer of the datapath is drawn from:
// a sync.Pool per slab size in use. A small transfer then costs its packets,
// not a fresh, zeroed set of rings per dial and per session. The rule is the
// same for every slab: its owner draws it when a ring is built and frees it
// when the ring is rebuilt or its endpoint, session or listener ends, and
// never touches it afterwards.
var slabPools = struct {
	sync.Mutex
	bySize map[int]*sync.Pool
}{bySize: map[int]*sync.Pool{}}

// slabPool returns the pool of size-byte slabs. Rings look it up once, when
// they are built; per-burst draws go through the pool they kept.
func slabPool(size int) *sync.Pool {
	slabPools.Lock()
	defer slabPools.Unlock()
	p := slabPools.bySize[size]
	if p == nil {
		p = new(sync.Pool)
		p.New = func() any { return &slab{buf: make([]byte, size), pool: p} }
		slabPools.bySize[size] = p
	}
	return p
}

// free returns the slab to its pool.
func (s *slab) free() { s.pool.Put(s) }

// txBatch is a frame ring of MTU-sized slots over one pooled slab. The
// sender encodes each outbound packet directly into the next slot
// (wire.EncodeInto — no allocation), and the ring flushes as one vectored
// write when full or on demand. A one-slot ring is the unbatched datapath:
// every commit flushes.
type txBatch struct {
	slab   *slab
	frames [][]byte // fixed slots, each cap = MTU
	lens   []int
	queued int
	flush  func(frames [][]byte, lens []int, n int) error
}

// newTxBatch builds a ring of n MTU-sized slots over one pooled slab.
func newTxBatch(n, mtu int, flush func([][]byte, []int, int) error) *txBatch {
	t := &txBatch{slab: slabPool(n * mtu).Get().(*slab), frames: make([][]byte, n), lens: make([]int, n), flush: flush}
	for i := range t.frames {
		t.frames[i] = t.slab.buf[i*mtu : (i+1)*mtu]
	}
	return t
}

// release returns the ring's slab to the pool and leaves a ring of no slots,
// which nothing may encode into; queued frames are dropped, so flush first.
// A nil or already released ring releases nothing.
func (t *txBatch) release() {
	if t == nil || t.slab == nil {
		return
	}
	t.slab.free()
	t.slab, t.frames, t.lens, t.queued = nil, nil, nil, 0
}

// slot returns the current free frame slot to encode into.
func (t *txBatch) slot() []byte { return t.frames[t.queued] }

// commit finalises the current slot with n encoded bytes; a full ring
// flushes immediately.
func (t *txBatch) commit(n int) error {
	t.lens[t.queued] = n
	t.queued++
	if t.queued == len(t.frames) {
		return t.Flush()
	}
	return nil
}

// enqueueCopy queues a copy of an already-encoded frame (an injected
// duplicate, a matured reorder hold) behind whatever is queued.
func (t *txBatch) enqueueCopy(b []byte) error {
	if len(b) > len(t.slot()) {
		// Defensive: cannot happen for frames this endpoint encoded, since
		// slots are MTU-sized like the encode path.
		return t.Flush()
	}
	n := copy(t.slot(), b)
	return t.commit(n)
}

// Flush writes every queued frame, in order, and empties the ring.
func (t *txBatch) Flush() error {
	if t.queued == 0 {
		return nil
	}
	n := t.queued
	t.queued = 0
	return t.flush(t.frames, t.lens, n)
}

// GRO ring geometry. A GRO-enabled socket can deliver a coalesced
// superbuffer up to the full UDP payload space per message, so the ring
// trades message count for message size: a few superbuffer-sized slots hold
// far more frames than an MTU-sized ring of any width.
const (
	groBufBytes  = 65535 // one coalesced superbuffer can span the whole UDP payload space
	groCtrlBytes = 64    // cmsg space per message: one gso_size cmsg plus headroom
	groRingMsgs  = 4     // messages per fill; each can carry ~a window of frames
)

// rxBatch is the receive ring every read of a socket fills: raw messages
// plus the raw source sockaddr of each, taken FIFO one whole message at a
// time (take). A GRO ring additionally carries per-message control buffers,
// so a coalesced superbuffer arrives with its gso_size and splits back into
// frames (splitSeg). Every buffer is a pooled slab. A client Endpoint walks
// each message in place and frees the slabs with the ring (release); the
// server's demux loop hands a filled slab on to a session, which walks it
// there and frees it, and the ring slot draws a fresh one (replace).
type rxBatch struct {
	bufs        [][]byte
	slabs       []*slab // bufs[i] is slabs[i].buf
	pool        *sync.Pool
	names       [][]byte
	ctrls       [][]byte // GRO mode only: per-message cmsg space (gso_size)
	lens        []int
	segs        []int // per-message gso_size (0 = one plain datagram)
	count, next int
	recv        mmsgReceiver
}

// rxBufSize is the size of one ring buffer: a whole superbuffer on a GRO
// socket, one datagram otherwise.
func rxBufSize(mtu int, gro bool) int {
	if gro {
		return groBufBytes
	}
	return mtu
}

// newRxBatch builds an n-message ring of rxBufSize(mtu, gro)-byte slabs. A
// GRO ring is capped at groRingMsgs superbuffer-sized messages.
func newRxBatch(n, mtu int, gro bool) *rxBatch {
	if n < 1 {
		n = 1
	}
	if gro && n > groRingMsgs {
		n = groRingMsgs
	}
	names := make([]byte, n*rawNameLen)
	r := &rxBatch{bufs: make([][]byte, n), slabs: make([]*slab, n), pool: slabPool(rxBufSize(mtu, gro)),
		names: make([][]byte, n), lens: make([]int, n), segs: make([]int, n)}
	for i := 0; i < n; i++ {
		r.names[i] = names[i*rawNameLen : (i+1)*rawNameLen]
		r.replace(i)
	}
	if gro {
		ctrls := make([]byte, n*groCtrlBytes)
		r.ctrls = make([][]byte, n)
		for i := 0; i < n; i++ {
			r.ctrls[i] = ctrls[i*groCtrlBytes : (i+1)*groCtrlBytes]
		}
	}
	return r
}

// replace gives ring slot i a fresh slab from the pool; the slab it held now
// belongs to whoever took it.
func (r *rxBatch) replace(i int) {
	r.slabs[i] = r.pool.Get().(*slab)
	r.bufs[i] = r.slabs[i].buf
}

// release frees every slab the ring holds and empties it. A nil ring
// releases nothing.
func (r *rxBatch) release() {
	if r == nil {
		return
	}
	for _, s := range r.slabs {
		s.free()
	}
	r.bufs, r.slabs, r.count, r.next = nil, nil, 0, 0
}

// pending reports whether received messages are waiting to be taken.
func (r *rxBatch) pending() bool { return r.next < r.count }

// splitSeg returns the datagram of a received message that starts at *off
// and advances *off past it: seg bytes of a coalesced message (gso_size
// attached; the final segment possibly shorter — the inverse of the GSO
// transmit packing), everything that is left of a plain one (seg 0). The
// one splitter of every receive path.
func splitSeg(msg []byte, seg int, off *int) []byte {
	end := len(msg)
	if seg > 0 && *off+seg < end {
		end = *off + seg
	}
	data := msg[*off:end]
	*off = end
	return data
}

// take returns the ring slot of the next received message and writes the
// canonical key of its source into key, reading the socket (fill) only once
// every message already in the ring has been taken; a message whose source
// sockaddr does not parse is skipped. The message stays valid until take
// next has to fill the ring.
func (r *rxBatch) take(conn net.PacketConn, raw syscall.RawConn, key *[addrKeyLen]byte) (int, error) {
	for {
		if !r.pending() {
			if err := r.fill(conn, raw); err != nil {
				return 0, err
			}
			continue
		}
		i := r.next
		r.next++
		if keyFromRaw(key, r.names[i]) {
			return i, nil
		}
	}
}

// msg returns the bytes of the message in slot i and the gso_size it was
// coalesced at (0: one datagram), the arguments splitSeg walks it with.
func (r *rxBatch) msg(i int) ([]byte, int) { return r.bufs[i][:r.lens[i]], r.segs[i] }

// fill blocks (honouring the socket's read deadline) until at least one
// message is in the ring: one cmsg-aware recvmmsg where the platform has it,
// one ReadFrom into the first slot where it does not. It is the one read of
// every socket in this package.
func (r *rxBatch) fill(conn net.PacketConn, raw syscall.RawConn) error {
	if mmsgSupported && raw != nil {
		return fillBatch(raw, r)
	}
	n, addr, err := conn.ReadFrom(r.bufs[0])
	if err != nil {
		return err
	}
	r.count, r.next = 0, 0
	if ua, ok := addr.(*net.UDPAddr); ok && putRawName(r.names[0], ua) {
		r.lens[0], r.segs[0], r.count = n, 0, 1
	}
	return nil
}

// rawConnOf extracts the raw connection for batched syscalls, when the
// socket supports it.
func rawConnOf(conn net.PacketConn) syscall.RawConn {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// addrKeyLen is the canonical address key size: a 16-byte IP (IPv4 mapped
// into IPv6 form) plus a big-endian port.
const addrKeyLen = 18

// addrKey returns the canonical comparison key for a peer address, the key
// take writes for every datagram that address sends. Only a UDP address has
// one: any other matches no arrival.
func addrKey(a net.Addr) string {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return ""
	}
	var k [addrKeyLen]byte
	keyFromUDP(&k, ua)
	return string(k[:])
}

// keyFromUDP writes a UDP address's canonical key into dst without
// allocating.
func keyFromUDP(dst *[addrKeyLen]byte, ua *net.UDPAddr) {
	ip := ua.IP.To16()
	if ip == nil {
		*dst = [addrKeyLen]byte{}
		return
	}
	copy(dst[:16], ip)
	binary.BigEndian.PutUint16(dst[16:], uint16(ua.Port))
}
