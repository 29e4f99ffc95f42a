package udplan

import (
	"net"
	"runtime"
	"testing"
)

// The chunk rule: the route MTU less the IP and UDP headers, capped at the
// datagram slot, less the packet header; 1000 bytes where the route MTU
// cannot be read.
func TestPathChunkRule(t *testing.T) {
	for _, c := range []struct {
		name  string
		route int
		v6    bool
		slot  int
		want  int
	}{
		{"1500 IPv4", 1500, false, MaxDatagram, 1448},
		{"1500 IPv6", 1500, true, MaxDatagram, 1428},
		{"9000, default slot", 9000, false, MaxDatagram, 2024},
		{"loopback 65536, default slot", 65536, false, MaxDatagram, 2024},
		{"9000, -mtu 9000", 9000, false, 9000, 8948},
		{"unreadable", 0, false, MaxDatagram, 1000},
		{"unreadable, small slot", 0, false, 600, 576},
	} {
		if got := pathChunk(c.route, c.v6, c.slot); got != c.want {
			t.Errorf("%s: chunk %d, want %d", c.name, got, c.want)
		}
	}
}

// On loopback the endpoint reads the route's MTU (65536 on Linux) and fills
// its slot exactly: 2024 bytes by default, the jumbo slot after SetMTU. Off
// Linux it reads none and keeps 1000.
func TestPathChunkOverLoopback(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer conn.Close()
	e, err := Dial(conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	chunk, route := e.PathChunk()
	if runtime.GOOS != "linux" {
		if route != 0 || chunk != fallbackChunk {
			t.Errorf("chunk %d from route MTU %d, want %d from none", chunk, route, fallbackChunk)
		}
		return
	}
	if route < MaxDatagram+28 {
		t.Skipf("loopback route MTU %d is below the default slot", route)
	}
	if chunk != MaxDatagram-24 {
		t.Errorf("chunk %d from route MTU %d, want %d", chunk, route, MaxDatagram-24)
	}
	if err := e.SetMTU(9000); err != nil {
		t.Fatal(err)
	}
	if chunk, _ = e.PathChunk(); chunk != min(route-28, 9000)-24 {
		t.Errorf("chunk %d under a 9000-byte slot, want %d", chunk, min(route-28, 9000)-24)
	}
	// The largest chunk the slot carries: one byte more does not fit.
	cfg := loopCfg(1, nil, 0, 0)
	if cfg.ChunkSize = chunk; e.ValidateConfig(cfg) != nil {
		t.Errorf("chunk %d does not fit the endpoint's slot", chunk)
	}
	if cfg.ChunkSize = chunk + 1; e.ValidateConfig(cfg) == nil {
		t.Errorf("chunk %d, one over the derived chunk, fits the slot", chunk+1)
	}
}
