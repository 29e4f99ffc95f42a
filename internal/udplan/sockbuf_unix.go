//go:build unix

package udplan

import "syscall"

// connReadBuffer reads back the receive buffer the kernel actually granted
// the socket (SO_RCVBUF) — what a SetConnBuffers request was clamped to, in
// the kernel's own accounting units (Linux reports twice the request: skb
// overhead is charged against the same budget). 0 when it cannot be read.
func connReadBuffer(raw syscall.RawConn) int {
	if raw == nil {
		return 0
	}
	var n int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || serr != nil {
		return 0
	}
	return n
}
