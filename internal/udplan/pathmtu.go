package udplan

import (
	"net"

	"blastlan/internal/wire"
)

// fallbackChunk is the chunk where the route MTU cannot be read: what every
// transfer used before chunks were sized to the path, and under any
// Ethernet's 1500-byte MTU.
const fallbackChunk = 1000

// PathChunk returns the largest chunk one packet to the endpoint's peer can
// carry, and the route MTU it was derived from (0 where none could be read).
// The paper moves a transfer in maximal packets because each packet pays a
// fixed cost, so the chunk fills the path: the route MTU the kernel holds
// for the peer, less the IP and UDP headers (28 bytes over IPv4, 48 over
// IPv6), capped at the endpoint's datagram slot (SetMTU; MaxDatagram by
// default), less the packet header. That is 1448 bytes over a 1500-byte
// IPv4 Ethernet and 2024 on loopback. Where the route MTU cannot be read —
// off Linux, or a peer that is not a UDP address — it is fallbackChunk,
// within the slot. Call it after SetMTU.
func (e *Endpoint) PathChunk() (chunk, route int) {
	peer, ok := e.peer.(*net.UDPAddr)
	if !ok {
		return pathChunk(0, false, e.mtu), 0
	}
	route = routeMTU(peer)
	return pathChunk(route, peer.IP.To4() == nil, e.mtu), route
}

// pathChunk is PathChunk's rule for a route MTU (0: unknown), the peer's
// address family and the endpoint's datagram slot.
func pathChunk(route int, v6 bool, slot int) int {
	if route <= 0 {
		return min(fallbackChunk, slot-wire.HeaderSize)
	}
	ipUDP := 20 + 8
	if v6 {
		ipUDP = 40 + 8
	}
	return min(route-ipUDP, slot) - wire.HeaderSize
}
