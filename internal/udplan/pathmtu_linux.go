//go:build linux

package udplan

import (
	"net"
	"syscall"
)

// routeMTU reads the MTU of the kernel's route to peer: IP_MTU, or IPV6_MTU
// for an IPv6 peer, of a UDP socket connected to it. Connecting a UDP socket
// only binds it to the route; nothing is sent. 0 where it cannot be read.
func routeMTU(peer *net.UDPAddr) int {
	conn, err := net.DialUDP("udp", nil, peer)
	if err != nil {
		return 0
	}
	defer conn.Close()
	raw, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	level, opt := syscall.IPPROTO_IP, syscall.IP_MTU
	if peer.IP.To4() == nil {
		level, opt = syscall.IPPROTO_IPV6, syscall.IPV6_MTU
	}
	var mtu int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		mtu, serr = syscall.GetsockoptInt(int(fd), level, opt)
	}); err != nil || serr != nil {
		return 0
	}
	return mtu
}
