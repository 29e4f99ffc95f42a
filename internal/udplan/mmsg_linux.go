//go:build linux && (amd64 || arm64)

package udplan

// Batched datagram syscalls for Linux: one sendmmsg flushes a whole frame
// ring, one recvmmsg fills a whole receive ring. The stdlib
// syscall package stops short of these (they are wrapped only in
// golang.org/x/net), so the mmsghdr layout and syscall numbers are defined
// here for the 64-bit architectures this project targets; every other
// platform takes the portable WriteTo/ReadFrom fallback in
// mmsg_fallback.go.

import (
	"net"
	"syscall"
	"unsafe"
)

// rawNameLen is the raw sockaddr slot size: big enough for sockaddr_in6.
const rawNameLen = syscall.SizeofSockaddrInet6

// mmsgSupported reports whether this build has the sendmmsg/recvmmsg tier.
const mmsgSupported = true

// mmsgHdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the per-message transferred length, padded to 8 bytes.
type mmsgHdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgSender holds the reusable sendmmsg argument arrays of one batched
// writer and, like gsoSender, the one RawConn.Write callback over them. The
// zero value is ready to use; it must not be copied once it has sent.
type mmsgSender struct {
	hdrs    []mmsgHdr
	iovs    []syscall.Iovec
	name    [rawNameLen]byte
	nameLen uint32

	todo  []mmsgHdr // what the next sendmmsg is to send
	sent  int
	errno syscall.Errno
	write func(fd uintptr) bool // s.sendmmsg
}

// setName encodes the destination into the shared sockaddr every message
// of the batch points at. Reports false for addresses this path cannot
// target (the caller then falls back to WriteTo).
func (s *mmsgSender) setName(ua *net.UDPAddr) bool {
	return encodeUDPName(&s.name, &s.nameLen, ua)
}

// encodeUDPName writes a UDP address as a raw sockaddr into the shared name
// slot every batched writer (sendmmsg and GSO sendmsg alike) points its
// msghdrs at. Reports false for addresses the raw path cannot target (the
// caller then falls back to WriteTo).
func encodeUDPName(name *[rawNameLen]byte, nameLen *uint32, ua *net.UDPAddr) bool {
	if ua.Zone != "" {
		return false // link-local zones need an interface lookup
	}
	if ip4 := ua.IP.To4(); ip4 != nil {
		*(*uint16)(unsafe.Pointer(&name[0])) = syscall.AF_INET
		name[2], name[3] = byte(ua.Port>>8), byte(ua.Port)
		copy(name[4:8], ip4)
		for i := 8; i < rawNameLen; i++ {
			name[i] = 0
		}
		*nameLen = syscall.SizeofSockaddrInet4
		return true
	}
	if ip16 := ua.IP.To16(); ip16 != nil {
		*(*uint16)(unsafe.Pointer(&name[0])) = syscall.AF_INET6
		name[2], name[3] = byte(ua.Port>>8), byte(ua.Port)
		name[4], name[5], name[6], name[7] = 0, 0, 0, 0 // flowinfo
		copy(name[8:24], ip16)
		name[24], name[25], name[26], name[27] = 0, 0, 0, 0 // scope
		*nameLen = syscall.SizeofSockaddrInet6
		return true
	}
	return false
}

// mmsgReceiver holds the reusable recvmmsg argument arrays of one batched
// reader, the result of its last call and the one RawConn.Read callback over
// them, built once so a read allocates nothing; the zero value is ready to use.
type mmsgReceiver struct {
	hdrs []mmsgHdr
	iovs []syscall.Iovec

	got   int
	errno syscall.Errno
	read  func(fd uintptr) bool // r.recvmmsg
}

// fillBatch is rxBatch.fill on this platform: one recvmmsg into the whole
// ring under raw.Read, which parks on the poller (honouring the socket's
// read deadline) until the socket turns readable. On a GRO ring messages
// carry their gso_size control data, so a coalesced superbuffer splits back
// into frames as it is walked.
func fillBatch(raw syscall.RawConn, r *rxBatch) error {
	rv := &r.recv
	if rv.read == nil {
		rv.read = r.recvmmsg
	}
	if err := raw.Read(rv.read); err != nil {
		return err // deadline expired or socket closed
	}
	if rv.errno != 0 {
		return rv.errno
	}
	r.count, r.next = rv.got, 0
	return nil
}

// recvmmsg is fillBatch's RawConn.Read callback: an empty socket (EAGAIN)
// asks to be called again once it is readable.
func (r *rxBatch) recvmmsg(fd uintptr) bool {
	r.recv.got, r.recv.errno = recvmmsgInto(fd, r)
	return r.recv.errno != syscall.EAGAIN
}

// recvmmsgInto performs one non-blocking recvmmsg into the ring's buffers,
// recording per-message lengths, raw source sockaddrs and (when the ring
// carries control buffers) GRO segment sizes.
func recvmmsgInto(fd uintptr, r *rxBatch) (got int, errno syscall.Errno) {
	n := len(r.bufs)
	rv := &r.recv
	if cap(rv.hdrs) < n {
		rv.hdrs = make([]mmsgHdr, n)
		rv.iovs = make([]syscall.Iovec, n)
	}
	hdrs, iovs := rv.hdrs[:n], rv.iovs[:n]
	for i := 0; i < n; i++ {
		iovs[i].Base = &r.bufs[i][0]
		iovs[i].SetLen(len(r.bufs[i]))
		hdrs[i] = mmsgHdr{}
		hdrs[i].hdr.Name = &r.names[i][0]
		hdrs[i].hdr.Namelen = rawNameLen
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
		if r.ctrls != nil {
			hdrs[i].hdr.Control = &r.ctrls[i][0]
			hdrs[i].hdr.SetControllen(len(r.ctrls[i]))
		}
	}
	r0, _, e := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(n),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if e != 0 {
		return 0, e
	}
	got = int(r0)
	for i := 0; i < got; i++ {
		r.lens[i] = int(hdrs[i].n)
		r.segs[i] = 0
		if r.ctrls != nil {
			r.segs[i] = parseGROSize(r.ctrls[i][:hdrs[i].hdr.Controllen])
		}
	}
	return got, 0
}

// sendBatch transmits frames[0:n] to peer with as few sendmmsg calls as the
// kernel allows (normally one). handled is false when the peer or socket
// cannot take this path and the caller must fall back to WriteTo.
func sendBatch(raw syscall.RawConn, s *mmsgSender, peer net.Addr, frames [][]byte, lens []int, n int) (handled bool, err error) {
	if raw == nil || n == 0 {
		return n == 0, nil
	}
	ua, ok := peer.(*net.UDPAddr)
	if !ok || !s.setName(ua) {
		return false, nil
	}
	if cap(s.hdrs) < n {
		s.hdrs = make([]mmsgHdr, n)
		s.iovs = make([]syscall.Iovec, n)
	}
	hdrs, iovs := s.hdrs[:n], s.iovs[:n]
	for i := 0; i < n; i++ {
		iovs[i].Base = &frames[i][0]
		iovs[i].SetLen(lens[i])
		hdrs[i] = mmsgHdr{}
		hdrs[i].hdr.Name = &s.name[0]
		hdrs[i].hdr.Namelen = s.nameLen
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	if s.write == nil {
		s.write = s.sendmmsg
	}
	for off := 0; off < n; off += s.sent {
		s.todo, s.sent, s.errno = hdrs[off:], 0, 0
		switch werr := raw.Write(s.write); {
		case werr != nil:
			return true, werr
		case s.errno != 0:
			return true, s.errno
		case s.sent <= 0:
			return true, syscall.EIO // defensive: avoid a zero-progress spin
		}
	}
	return true, nil
}

// sendmmsg is the RawConn.Write callback: one sendmmsg of s.todo.
func (s *mmsgSender) sendmmsg(fd uintptr) bool {
	r0, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&s.todo[0])), uintptr(len(s.todo)), 0, 0, 0)
	if errno == syscall.EAGAIN {
		return false // wait for writability, then retry
	}
	s.sent, s.errno = int(r0), errno
	return true
}

// putRawName writes ua into a ring's raw source-address slot, for arrivals
// read without recvmmsg (fill on a socket with no raw access).
func putRawName(dst []byte, ua *net.UDPAddr) bool {
	var n uint32
	return encodeUDPName((*[rawNameLen]byte)(dst), &n, ua)
}

// keyFromRaw writes the canonical address key of a raw sockaddr into dst
// without allocating (IPv4 is mapped into IPv6 form, matching
// keyFromUDP's net.IP.To16 normalisation).
func keyFromRaw(dst *[addrKeyLen]byte, name []byte) bool {
	if len(name) < 2 {
		return false
	}
	switch *(*uint16)(unsafe.Pointer(&name[0])) {
	case syscall.AF_INET:
		if len(name) < syscall.SizeofSockaddrInet4 {
			return false
		}
		for i := 0; i < 10; i++ {
			dst[i] = 0
		}
		dst[10], dst[11] = 0xff, 0xff
		copy(dst[12:16], name[4:8])
		dst[16], dst[17] = name[2], name[3]
		return true
	case syscall.AF_INET6:
		if len(name) < syscall.SizeofSockaddrInet6 {
			return false
		}
		copy(dst[:16], name[8:24])
		dst[16], dst[17] = name[2], name[3]
		return true
	}
	return false
}

// rawToUDPAddr converts a raw sockaddr into a net.UDPAddr (copying the IP
// bytes out of the reused name slot), or nil for unknown families.
func rawToUDPAddr(name []byte) *net.UDPAddr {
	if len(name) < 2 {
		return nil
	}
	switch *(*uint16)(unsafe.Pointer(&name[0])) {
	case syscall.AF_INET:
		if len(name) < syscall.SizeofSockaddrInet4 {
			return nil
		}
		ip := make(net.IP, 4)
		copy(ip, name[4:8])
		return &net.UDPAddr{IP: ip, Port: int(name[2])<<8 | int(name[3])}
	case syscall.AF_INET6:
		if len(name) < syscall.SizeofSockaddrInet6 {
			return nil
		}
		ip := make(net.IP, 16)
		copy(ip, name[8:24])
		return &net.UDPAddr{IP: ip, Port: int(name[2])<<8 | int(name[3])}
	}
	return nil
}
