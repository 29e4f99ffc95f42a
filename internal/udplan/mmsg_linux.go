//go:build linux && (amd64 || arm64)

package udplan

// Batched datagram syscalls for Linux: one sendmmsg flushes a whole frame
// ring, one recvmmsg drains everything the kernel has queued. The stdlib
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
	block bool                  // wait for a message (fillBatch) or take what is there (recvBatch)
	read  func(fd uintptr) bool // r.recvmmsg
}

// rawRead runs one recvmmsg into the ring under raw.Read, waiting for the
// socket to turn readable when block is set; got and errno hold its outcome.
func (r *rxBatch) rawRead(raw syscall.RawConn, block bool) error {
	rv := &r.recv
	if rv.read == nil {
		rv.read = r.recvmmsg
	}
	rv.block = block
	return raw.Read(rv.read)
}

// recvmmsg is rawRead's RawConn.Read callback.
func (r *rxBatch) recvmmsg(fd uintptr) bool {
	r.recv.got, r.recv.errno = recvmmsgInto(fd, r)
	return !r.recv.block || r.recv.errno != syscall.EAGAIN
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

// recvBatch performs one non-blocking recvmmsg into the ring, recording
// each datagram's length, raw source sockaddr and (on GRO rings) segment
// size. It never waits: an empty socket returns (0, true). ok is false when
// the platform path failed and the caller should not trust the ring. The
// blocking variant is gso_linux.go's fillBatch; both go through rawRead.
func recvBatch(raw syscall.RawConn, r *rxBatch) (got int, ok bool) {
	// Opportunistic: EAGAIN (socket empty) or a transient error drains nothing.
	if raw == nil || r.rawRead(raw, false) != nil {
		return 0, false
	}
	return r.recv.got, true
}

// putRawName writes ua into a ring's raw source-address slot, for arrivals
// read without recvmmsg (a socket with no raw access).
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
