package udplan

import (
	"bytes"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

func TestParseTierRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierAuto, TierWriteTo, TierMmsg, TierGSO} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if got, err := ParseTier(""); err != nil || got != TierAuto {
		t.Errorf("ParseTier(\"\") = %v, %v", got, err)
	}
	if _, err := ParseTier("turbo"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}

// bestTier independently probes the highest tier this platform/kernel
// supports, so the forced-chain test's expectations do not come from the
// code under test's own ladder logic.
func bestTier(t *testing.T) Tier {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	defer conn.Close()
	best := TierWriteTo
	if mmsgSupported {
		best = TierMmsg
		if gsoSupported && probeGSO(rawConnOf(conn)) {
			best = TierGSO
		}
	}
	return best
}

// Every rung of the GSO→mmsg→WriteTo degradation chain must be reachable
// and correct: the BLASTLAN_TIER cap forces each tier in turn, the endpoint
// reports the expected one, and a real transfer completes byte-identically
// — so CI exercises the fallback rungs even on kernels where GSO works (and
// exercises exactly the working rungs on platforms where it does not).
func TestForcedTierChain(t *testing.T) {
	best := bestTier(t)
	for _, forced := range []Tier{TierWriteTo, TierMmsg, TierGSO} {
		t.Run(forced.String(), func(t *testing.T) {
			t.Setenv(TierEnv, forced.String())
			want := forced
			if best < want {
				want = best
			}

			payload := randomPayload(96*1024, 1000+int64(forced))
			srv, addr := newLoopbackServer(t)
			srv.Concurrency = 2
			srv.Batch = 16
			srv.Source = serveBytes(payload)
			done := make(chan error, 1)
			go func() { done <- srv.Run() }()
			if got := srv.Tier(); got != want {
				t.Fatalf("server tier = %v, want %v", got, want)
			}

			e, err := Dial(addr)
			if err != nil {
				t.Skipf("dial: %v", err)
			}
			defer e.Close()
			e.SetBatch(16)
			if got := e.Tier(); got != want {
				t.Fatalf("endpoint tier = %v, want %v", got, want)
			}
			if e.GRO() && want < TierGSO {
				t.Fatal("GRO left enabled below the GSO tier")
			}
			cfg := loopCfg(700+uint32(forced), payload, core.Blast, core.Selective)
			cfg.Payload = nil
			cfg.Window = 32
			res, err := Pull(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || !bytes.Equal(res.Data, payload) {
				t.Fatalf("tier %v: corrupted pull (completed=%v bytes=%d)", want, res.Completed, len(res.Data))
			}
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("server: %v", err)
			}
		})
	}
}

// The GSO tier must actually engage where the kernel supports it (skip, not
// pass, elsewhere — CI greps for the skip on old kernels): the endpoint
// probes to TierGSO, coalesces receives when the kernel grants UDP_GRO, and
// a batched window-sized transfer survives byte-identically.
func TestGSOTierEngages(t *testing.T) {
	if best := bestTier(t); best < TierGSO {
		t.Skipf("UDP_SEGMENT unsupported here (best tier %v); GSO needs Linux >= 4.18", best)
	}
	if cap := tierCapFromEnv(); cap != TierAuto && cap < TierGSO {
		t.Skipf("%s=%s caps the ladder below GSO (forced-fallback run)", TierEnv, cap)
	}
	payload := randomPayload(512*1024, 77)
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.Batch = 32
	srv.Source = serveBytes(payload)
	if got := srv.Tier(); got != TierGSO {
		t.Fatalf("server tier = %v, want gso", got)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	e.SetBatch(32)
	if got := e.Tier(); got != TierGSO {
		t.Fatalf("endpoint tier = %v, want gso", got)
	}
	// GRO is a separate kernel feature (>= 5.0); assert it only where a
	// scratch socket says the kernel grants it.
	scratch, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err == nil {
		kernelGRO := setGRO(rawConnOf(scratch), true)
		scratch.Close()
		if kernelGRO && !e.GRO() {
			t.Error("kernel grants UDP_GRO but the endpoint left it off")
		}
	}
	cfg := loopCfg(801, payload, core.Blast, core.Selective)
	cfg.Payload = nil
	cfg.Window = 64
	res, err := Pull(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !bytes.Equal(res.Data, payload) {
		t.Fatalf("GSO pull corrupted: completed=%v bytes=%d", res.Completed, len(res.Data))
	}
	if res.Checksum != core.TransferChecksum(payload) {
		t.Error("checksum mismatch")
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("server: %v", err)
	}
}

// SetMTU mid-stream must put queued frames (possibly a GSO superbuffer in
// formation) on the wire before rebuilding the rings — the SetBatch
// flush-before-resize contract extended to the resize that changes slot
// geometry. Without the flush the queued frames would be silently dropped
// with the old ring.
func TestSetMTUFlushesQueuedFrames(t *testing.T) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	defer a.Close()
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	defer b.Close()

	e := NewEndpoint(a, b.LocalAddr())
	e.SetBatch(16)
	const queued = 3
	for i := 0; i < queued; i++ {
		p := &wire.Packet{Type: wire.TypeData, Trans: 9, Seq: uint32(i), Payload: []byte("held in the ring")}
		if err := e.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetMTU(4096); err != nil {
		t.Fatal(err)
	}
	eb := NewEndpoint(b, a.LocalAddr())
	for i := 0; i < queued; i++ {
		p, err := eb.Recv(500 * time.Millisecond) // the frames must already be on the wire
		if err != nil {
			t.Fatalf("frame %d never arrived: SetMTU dropped the queued ring (%v)", i, err)
		}
		if p.Seq != uint32(i) {
			t.Fatalf("frame %d: got seq %d", i, p.Seq)
		}
	}
}
