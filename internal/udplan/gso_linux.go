//go:build linux && (amd64 || arm64)

package udplan

// UDP segmentation offload for Linux: the GSO tier of the batched datapath.
//
// On transmit, a whole flush of equal-sized wire frames travels as ONE
// contiguous superbuffer through ONE sendmsg carrying a UDP_SEGMENT control
// message: the kernel traverses its stack once and segments the buffer into
// individual datagrams at the very bottom (or, on loopback, not at all —
// see below). Compared to the sendmmsg tier this amortises not just the
// syscall but the entire per-packet kernel cost: route lookup, skb
// allocation, socket accounting — the 1985 paper's per-packet software
// overhead, one layer further down.
//
// On receive, UDP_GRO is the mirror image: the kernel hands the socket one
// coalesced superbuffer plus a gso_size control message, and the endpoint
// splits it back into frames in user space. On loopback the two compose
// perfectly: a locally delivered GSO skb whose destination socket has GRO
// enabled is never segmented at all — W frames cross the kernel as one
// buffer in one syscall each way.
//
// Frames in one superbuffer must share one size, except the final segment,
// which may be shorter (never longer). The protocol engines already emit
// that geometry — data frames are equal-sized and the transfer's short tail
// always carries FlagLast, which flushes separately (see core's blast
// sender and txPath.flushControl) — and sendGSO re-checks it anyway,
// splitting any mixed-size flush into maximal GSO-compatible runs.
//
// Everything here degrades: a probe failure at setup drops the endpoint to
// the sendmmsg tier, and an unroutable peer drops a single flush to the
// caller's fallback (see txPath.flushFrames).

import (
	"net"
	"syscall"
	"unsafe"
)

// Kernel constants the syscall package predates.
const (
	solUDP     = 17  // SOL_UDP (== IPPROTO_UDP)
	udpSegment = 103 // UDP_SEGMENT: setsockopt + cmsg, Linux ≥ 4.18
	udpGRO     = 104 // UDP_GRO: setsockopt + cmsg, Linux ≥ 5.0
)

// GSO geometry bounds.
const (
	// maxGSOSegs is the kernel's UDP_MAX_SEGMENTS: the most segments one
	// superbuffer may carry.
	maxGSOSegs = 64
	// maxGSOBytes bounds one superbuffer to what a single UDP/IPv4 datagram
	// could carry — the GSO payload is one giant UDP payload until the
	// kernel segments it.
	maxGSOBytes = 65507
)

// gsoSupported reports whether this build can attempt the GSO tier at all;
// the runtime probe still has the final say.
const gsoSupported = true

// probeGSO reports whether the socket's kernel understands UDP_SEGMENT
// (setting it to 0 is a no-op on kernels that do, ENOPROTOOPT on kernels
// that don't).
func probeGSO(raw syscall.RawConn) bool {
	if raw == nil {
		return false
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0)
	}); err != nil {
		return false
	}
	return serr == nil
}

// setGRO enables or disables UDP_GRO coalescing on the socket, reporting
// whether the kernel accepted it.
func setGRO(raw syscall.RawConn, on bool) bool {
	if raw == nil {
		return false
	}
	v := 0
	if on {
		v = 1
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, v)
	}); err != nil {
		return false
	}
	return serr == nil
}

// gsoOob is the encoded UDP_SEGMENT control message: one cmsghdr plus a
// uint16 segment size, padded to the kernel's alignment.
const gsoOobLen = 24 // syscall.CmsgSpace(2) on 64-bit Linux

// gsoSender holds the reusable sendmsg arguments of one GSO-tier writer and
// the one callback RawConn.Write runs them through — kept here, and built
// once, so a flush allocates nothing. The zero value is ready to use; it
// must not be copied once it has sent.
type gsoSender struct {
	iovs    []syscall.Iovec
	name    [rawNameLen]byte
	nameLen uint32
	oob     [gsoOobLen]byte

	mh    syscall.Msghdr
	sent  int
	errno syscall.Errno
	write func(fd uintptr) bool // g.sendmsg
}

// setSegment encodes the UDP_SEGMENT control message for segment size seg.
func (g *gsoSender) setSegment(seg int) {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&g.oob[0]))
	h.Level = solUDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&g.oob[syscall.CmsgLen(0)])) = uint16(seg)
}

// sendGSO transmits frames[0:n] to peer as a minimal number of UDP_SEGMENT
// superbuffers: each maximal run of equal-sized frames (plus at most one
// shorter trailing frame, which GSO permits as the final segment) becomes
// one sendmsg whose iovec array is the frame ring itself — no copy into a
// staging buffer. handled is false when the peer or socket cannot take this
// path and the caller must fall back a tier.
func sendGSO(raw syscall.RawConn, g *gsoSender, peer net.Addr, frames [][]byte, lens []int, n int) (handled bool, err error) {
	if raw == nil || n == 0 {
		return n == 0, nil
	}
	ua, ok := peer.(*net.UDPAddr)
	if !ok || !encodeUDPName(&g.name, &g.nameLen, ua) {
		return false, nil
	}
	if cap(g.iovs) < n {
		g.iovs = make([]syscall.Iovec, n)
	}
	iovs := g.iovs[:n]
	for i := 0; i < n; i++ {
		iovs[i].Base = &frames[i][0]
		iovs[i].SetLen(lens[i])
	}
	for i := 0; i < n; {
		seg := lens[i]
		j := i + 1
		total := seg
		for j < n && lens[j] == seg && j-i < maxGSOSegs && total+seg <= maxGSOBytes {
			total += seg
			j++
		}
		// One shorter frame may close the run: GSO's final segment may be
		// smaller than gso_size (never larger).
		if j < n && lens[j] < seg && j-i < maxGSOSegs && total+lens[j] <= maxGSOBytes {
			total += lens[j]
			j++
		}
		if err := g.sendRun(raw, iovs[i:j], total, seg, j-i > 1); err != nil {
			return true, err
		}
		i = j
	}
	return true, nil
}

// sendRun performs one sendmsg over the run's iovecs, attaching the
// UDP_SEGMENT cmsg when the run holds more than one frame.
func (g *gsoSender) sendRun(raw syscall.RawConn, iovs []syscall.Iovec, total, seg int, segmented bool) error {
	g.mh = syscall.Msghdr{Name: &g.name[0], Namelen: g.nameLen, Iov: &iovs[0], Iovlen: uint64(len(iovs))}
	if segmented {
		g.setSegment(seg)
		g.mh.Control = &g.oob[0]
		g.mh.SetControllen(gsoOobLen)
	}
	if g.write == nil {
		g.write = g.sendmsg
	}
	g.sent, g.errno = 0, 0
	switch werr := raw.Write(g.write); {
	case werr != nil:
		return werr
	case g.errno != 0:
		return g.errno
	case g.sent != total:
		return syscall.EIO // defensive: a datagram sendmsg is all-or-error
	}
	return nil
}

// sendmsg is the RawConn.Write callback: one sendmsg of g.mh.
func (g *gsoSender) sendmsg(fd uintptr) bool {
	r0, _, errno := syscall.Syscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(&g.mh)), 0)
	if errno == syscall.EAGAIN {
		return false // wait for writability, then retry
	}
	g.sent, g.errno = int(r0), errno
	return true
}

// parseGROSize extracts the gso_size from a received control buffer: the
// kernel attaches a SOL_UDP/UDP_GRO cmsg (an int) to every message it
// delivered coalesced. Returns 0 when absent (the message is one datagram).
func parseGROSize(ctrl []byte) int {
	off := 0
	for off+syscall.SizeofCmsghdr <= len(ctrl) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[off]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || off+l > len(ctrl) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO {
			data := ctrl[off+syscall.CmsgLen(0) : off+l]
			switch {
			case len(data) >= 4:
				return int(*(*int32)(unsafe.Pointer(&data[0])))
			case len(data) >= 2:
				return int(*(*uint16)(unsafe.Pointer(&data[0])))
			}
			return 0
		}
		off += (l + 7) &^ 7 // next cmsg, 8-byte aligned
	}
	return 0
}
