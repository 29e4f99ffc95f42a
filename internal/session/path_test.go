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

// Every port of a host shares its path; a simulated station is its name.
func TestHostOf(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 4000}
	b := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 5000}
	if hostOf(a) != hostOf(b) || hostOf(a) != "10.0.0.7" {
		t.Errorf("hosts %q and %q, want both 10.0.0.7", hostOf(a), hostOf(b))
	}
	if got := hostOf(stationName("client3")); got != "client3" {
		t.Errorf("station host %q, want client3", got)
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
				host := fmt.Sprintf("h%d-%d", g, i)
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
	pt.put("h", time.Millisecond)
	pt.put("h", 2*time.Millisecond)
	if got := pt.get("h"); got != 2*time.Millisecond {
		t.Errorf("host h: %v, want the last RTT put, 2ms", got)
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
