package session

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

type stationName string

func (s stationName) String() string { return string(s) }

// Every port of a host shares its path, over IPv4 in either form; a
// simulated station is its name.
func TestHostOf(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 4000}
	b := &net.UDPAddr{IP: net.IP{10, 0, 0, 7}, Port: 5000}
	c := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 8), Port: 4000}
	if hostOf(a) != hostOf(b) || hostOf(a).ip.String() != "10.0.0.7" {
		t.Errorf("hosts %v and %v, want both 10.0.0.7", hostOf(a), hostOf(b))
	}
	if hostOf(a) == hostOf(c) {
		t.Errorf("10.0.0.7 and 10.0.0.8 share key %v", hostOf(a))
	}
	if got := hostOf(stationName("client3")); got.name != "client3" {
		t.Errorf("station host %v, want client3", got)
	}
}

// The table keeps the last RTT per host, never holds more than pathCap
// hosts, and takes concurrent sessions' reads and writes.
func TestPathTable(t *testing.T) {
	var pt pathTable
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*pathCap; i++ {
				host := stationName(fmt.Sprintf("h%d-%d", g, i))
				pt.put(host, time.Duration(i+1))
				if got := pt.get(host); got != 0 && got != time.Duration(i+1) {
					t.Errorf("%s: %v, want %v", host, got, time.Duration(i+1))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(pt.rtt); n > pathCap {
		t.Errorf("%d hosts held, cap %d", n, pathCap)
	}
	h := stationName("h")
	pt.put(h, time.Millisecond)
	pt.put(h, 2*time.Millisecond)
	if got := pt.get(h); got != 2*time.Millisecond {
		t.Errorf("host h: %v, want the last RTT put, 2ms", got)
	}
}

// Every pull reads and writes the path table once: on a socket peer,
// neither costs an allocation, for an IPv4 or an IPv6 host.
func TestPathTableAllocatesNothing(t *testing.T) {
	var pt pathTable
	v4 := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 4000}
	v6 := &net.UDPAddr{IP: net.ParseIP("fd00:1234:5678:9abc:def0:1234:5678:9abc"), Port: 4000}
	pt.put(v4, time.Millisecond)
	pt.put(v6, time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range []*net.UDPAddr{v4, v6} {
			pt.put(p, pt.get(p)+1)
		}
	}); allocs != 0 {
		t.Errorf("get and put allocated %v times per pair of pulls, want 0", allocs)
	}
}

// The demux loop looks up every burst's session by its raw key bytes: a hit
// or a miss costs no allocation, even past the 32 bytes a conversion may
// borrow from the stack.
func TestSessionTableGetAllocatesNothing(t *testing.T) {
	const key = "[fd00:1234:5678:9abc:def0:1234:5678:9abc]:40000/"
	table := &sessionTable{m: map[string]*session{key + "1": {key: key + "1"}}}
	hit, miss := []byte(key+"1"), []byte(key+"2")
	if allocs := testing.AllocsPerRun(100, func() {
		if table.get(hit) == nil || table.get(miss) != nil {
			t.Fatal("lookup returned the wrong session")
		}
	}); allocs != 0 {
		t.Errorf("get allocated %v times per hit and miss, want 0", allocs)
	}
}
