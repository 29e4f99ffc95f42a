package session

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"blastlan/internal/transport"
)

// pathCap bounds a path table: a table that has heard from more hosts than
// this starts over, so a stream of new sources cannot grow it without
// bound.
const pathCap = 1024

// PathTable remembers, per peer host, the smoothed RTT the last transfer to
// that host ended with (RFC 9040's "temporal sharing"); the next transfer
// there starts its timer from it (core.Config.PathRTT). Both ends keep one:
// Server for its pull senders (SendResult.SRTT), udplan for its client
// pulls' REQ askers (RecvResult.SRTT). A transfer reads it once and writes
// it once; nothing on the data path does. The zero value is empty and
// ready; it is safe for concurrent use.
type PathTable struct {
	mu  sync.Mutex
	rtt map[pathKey]time.Duration
}

// pathKey names the host a peer is on: its IP on sockets (every port of a
// host shares the path), a simulated station's name on the DES.
type pathKey struct {
	ip   netip.Addr
	name string
}

// hostOf keys a peer's host. A socket peer's key is built from its address
// bytes, with no allocation.
func hostOf(p transport.Peer) pathKey {
	if a, ok := p.(*net.UDPAddr); ok {
		ip, _ := netip.AddrFromSlice(a.IP)
		return pathKey{ip: ip.Unmap()}
	}
	return pathKey{name: p.String()}
}

// Get returns the last RTT put for p's host, or 0.
func (t *PathTable) Get(p transport.Peer) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rtt[hostOf(p)]
}

// Put records rtt as the RTT of p's host.
func (t *PathTable) Put(p transport.Peer, rtt time.Duration) {
	k := hostOf(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rtt == nil {
		t.rtt = make(map[pathKey]time.Duration)
	}
	if _, ok := t.rtt[k]; !ok && len(t.rtt) >= pathCap {
		clear(t.rtt)
	}
	t.rtt[k] = rtt
}
