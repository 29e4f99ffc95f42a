//go:build !linux || !(amd64 || arm64)

package udplan

// Portable no-op stand-ins for the Linux sendmmsg/recvmmsg fast path: the
// batch rings still form and flush, but as plain WriteTo loops, and the
// receive ring fills with one ReadFrom (rxBatch.fill) — behaviour is
// identical, only the syscall count differs.

import (
	"net"
	"syscall"
)

// rawNameLen matches the Linux sockaddr_in6 slot size so ring geometry is
// platform-independent.
const rawNameLen = 28

// mmsgSupported reports whether this build has the sendmmsg/recvmmsg tier.
const mmsgSupported = false

type mmsgSender struct{}

type mmsgReceiver struct{}

func sendBatch(syscall.RawConn, *mmsgSender, net.Addr, [][]byte, []int, int) (bool, error) {
	return false, nil
}

// fillBatch is unreachable here (fill takes its ReadFrom branch without
// recvmmsg), but fails loudly rather than pretending a read happened.
func fillBatch(syscall.RawConn, *rxBatch) error { return syscall.EINVAL }

// Without recvmmsg there are no kernel sockaddrs to carry: a ring's raw
// source-address slot holds the canonical address key itself (16-byte IP,
// big-endian port), written by putRawName from the ReadFrom address.

func putRawName(dst []byte, ua *net.UDPAddr) bool {
	if ua.IP.To16() == nil {
		return false
	}
	keyFromUDP((*[addrKeyLen]byte)(dst), ua)
	return true
}

func keyFromRaw(dst *[addrKeyLen]byte, name []byte) bool {
	return copy(dst[:], name) == addrKeyLen
}

func rawToUDPAddr(name []byte) *net.UDPAddr {
	if len(name) < addrKeyLen {
		return nil
	}
	ip := make(net.IP, 16)
	copy(ip, name[:16])
	if ip4 := ip.To4(); ip4 != nil {
		ip = ip4
	}
	return &net.UDPAddr{IP: ip, Port: int(name[16])<<8 | int(name[17])}
}
