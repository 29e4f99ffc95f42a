//go:build !linux

package udplan

import "net"

// routeMTU cannot read the route's MTU here; PathChunk falls back to
// fallbackChunk.
func routeMTU(*net.UDPAddr) int { return 0 }
