package simrun

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/transport"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// Server-side conformance: one sharded server built on the shared session
// layer (internal/session) serves 8 seeded clients at Concurrency=4 under
// scripted per-client drop/corrupt/duplicate/reorder adversaries, once over
// the discrete-event simulator and once over real UDP loopback. Per-client
// protocol counters and reassembled payloads must be identical. There is no
// substrate-specific server code in this test: both substrates run the same
// session.Server value configured by configureConformanceServer — udplan's
// daemon IS the shared server over a socket listener, and the simulator's
// is the same server over a station listener.

const (
	srvConfClients     = 8
	srvConfConcurrency = 4
	srvConfChunk       = 1000
)

// srvConfScript returns client i's scripted adversary hook: pure functions
// of packet identity (type, seq, attempt, flags), so the event sequence —
// and therefore every counter — is independent of arrival timing and
// identical on every substrate. Recovery stays NAK-driven: the reliable
// last packet of a window is never molested.
func srvConfScript(i int) func(*wire.Packet) params.Mangle {
	mode := i % 4
	if mode == 0 {
		return nil // clean client
	}
	return func(p *wire.Packet) params.Mangle {
		if p.Type != wire.TypeData || p.Attempt != 0 || p.Flags&wire.FlagLast != 0 {
			return params.Mangle{}
		}
		switch mode {
		case 1: // lossy client
			if p.Seq%16 == 2 || p.Seq%16 == 11 {
				return params.Mangle{Drop: true}
			}
		case 2: // corrupting + duplicating client
			if p.Seq%16 == 4 {
				return params.Mangle{Corrupt: true, CorruptBit: 1357}
			}
			if p.Seq%16 == 7 {
				return params.Mangle{Duplicate: true}
			}
		case 3: // reordering + lossy client
			if p.Seq%16 == 9 {
				return params.Mangle{Hold: 2}
			}
			if p.Seq%16 == 13 {
				return params.Mangle{Drop: true}
			}
		}
		return params.Mangle{}
	}
}

// srvConfAdversary wraps client i's script as an installable adversary.
func srvConfAdversary(i int) params.Adversary {
	s := srvConfScript(i)
	if s == nil {
		return params.Adversary{}
	}
	return params.Adversary{Script: s}
}

// srvConfConfig is client i's transfer contract: mixed sizes and
// strategies, wall-clock-sized timeouts so one config works on both
// substrates.
func srvConfConfig(i int) core.Config {
	return core.Config{
		TransferID:     uint32(100 + i),
		Bytes:          20000 + (i%4)*7000, // 20..41 chunks
		ChunkSize:      srvConfChunk,
		Protocol:       core.Blast,
		Strategy:       []core.Strategy{core.GoBackN, core.Selective}[i%2],
		Window:         16,
		RetransTimeout: 250 * time.Millisecond,
		MaxAttempts:    50,
		Linger:         100 * time.Millisecond,
		ReceiverIdle:   2 * time.Second,
	}
}

// srvConfExpected is client i's expected payload (the server streams it
// from a size-seeded generator, like blastd).
func srvConfExpected(i int) []byte {
	n := srvConfConfig(i).Bytes
	return core.SeededPayload(int64(n), n, srvConfChunk)
}

// configureConformanceServer installs the one shared handler set on a
// session.Server — the same value drives both substrates.
func configureConformanceServer(srv *session.Server, stats map[uint32]session.TransferStats, mu *sync.Mutex) {
	srv.Concurrency = srvConfConcurrency
	srv.Source = core.SeededReqSource
	srv.Done = func(ts session.TransferStats) {
		mu.Lock()
		stats[ts.TransferID] = ts
		mu.Unlock()
	}
}

// srvConfOutcome is the per-client cross-substrate projection: the client's
// receiver-side counters net of linger, the server session's sender-side
// counters, and the payload.
type srvConfOutcome struct {
	Counts    Counts
	Completed bool
	Data      []byte
}

// clientOutcome projects a client's RecvResult plus its server session's
// stats.
func clientOutcome(res core.RecvResult, ts session.TransferStats) srvConfOutcome {
	c := recvCounts(res)
	c.DataSent, c.Retransmits = ts.Packets, ts.Retransmits
	return srvConfOutcome{Counts: c, Completed: res.Completed, Data: res.Data}
}

// runServerConformanceSim serves the 8 clients on the simulator through the
// shared session layer.
func runServerConformanceSim(t *testing.T) []srvConfOutcome {
	t.Helper()
	k := sim.NewKernel()
	n, err := sim.NewNetwork(k, params.Standalone3Com(), params.LossModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverSt := n.AddStation("server")
	stats := make(map[uint32]session.TransferStats)
	var mu sync.Mutex
	srv := &session.Server{Idle: time.Minute}
	configureConformanceServer(srv, stats, &mu)
	var srvErr error
	sim.Serve(n, serverSt, func(l *sim.Listener) { srvErr = srv.Run(l) })

	results := make([]core.RecvResult, srvConfClients)
	errs := make([]error, srvConfClients)
	k.Go("clients", func(p *sim.Proc) {
		f := &sim.Fabric{
			Net:    n,
			Server: serverSt,
			P:      p,
			Prepare: func(i int, st *sim.Station) error {
				adv := srvConfAdversary(i)
				if !adv.Active() {
					return nil
				}
				return st.SetAdversary(adv, int64(1000+i))
			},
		}
		f.Fan(srvConfClients, func(i int, c transport.Client) error {
			results[i], errs[i] = core.Request(c, srvConfConfig(i))
			return errs[i]
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	outs := make([]srvConfOutcome, srvConfClients)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("sim client %d: %v", i, errs[i])
		}
		outs[i] = clientOutcome(results[i], stats[uint32(100+i)])
	}
	return outs
}

// runServerConformanceUDP serves the same 8 clients over real UDP loopback
// through the same shared session layer (udplan.Server embeds it; only the
// socket listener is substrate-specific).
func runServerConformanceUDP(t *testing.T, batch int) []srvConfOutcome {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	defer conn.Close()
	udplan.SetConnBuffers(conn, 4<<20)
	stats := make(map[uint32]session.TransferStats)
	var mu sync.Mutex
	srv := udplan.NewServer(conn)
	srv.Batch = batch
	configureConformanceServer(&srv.Server, stats, &mu)
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Run() }()

	results := make([]core.RecvResult, srvConfClients)
	errs := make([]error, srvConfClients)
	var wg sync.WaitGroup
	for i := 0; i < srvConfClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := udplan.Dial(conn.LocalAddr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			e.SetSocketBuffers(1 << 20)
			if adv := srvConfAdversary(i); adv.Active() {
				if errs[i] = e.SetAdversary(adv, int64(1000+i)); errs[i] != nil {
					return
				}
			}
			results[i], errs[i] = core.Request(e, srvConfConfig(i))
		}(i)
	}
	wg.Wait()
	conn.Close()
	if err := <-srvDone; err != nil {
		t.Fatalf("udp server: %v", err)
	}
	outs := make([]srvConfOutcome, srvConfClients)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("udp client %d: %v", i, errs[i])
		}
		mu.Lock()
		ts := stats[uint32(100+i)]
		mu.Unlock()
		outs[i] = clientOutcome(results[i], ts)
	}
	return outs
}

// TestServerSideConformance is the acceptance pin: a Concurrency=4 sharded
// server serving 8 seeded clients under scripted drop/corrupt/dup/reorder
// adversaries produces identical per-client protocol counters and
// byte-identical payloads on the simulator and over UDP — through the
// shared session layer on both sides.
func TestServerSideConformance(t *testing.T) {
	simOuts := runServerConformanceSim(t)

	// The scenario must actually exercise recovery and the session cap.
	recovered := 0
	for i, o := range simOuts {
		if !o.Completed {
			t.Fatalf("sim client %d incomplete", i)
		}
		if !bytes.Equal(o.Data, srvConfExpected(i)) {
			t.Fatalf("sim client %d payload differs from the seeded stream", i)
		}
		if o.Counts.Retransmits > 0 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no client needed recovery; the adversary scenario is vacuous")
	}

	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			udpOuts := runServerConformanceUDP(t, batch)
			for i := range udpOuts {
				if !udpOuts[i].Completed {
					t.Fatalf("udp client %d incomplete", i)
				}
				if !bytes.Equal(udpOuts[i].Data, simOuts[i].Data) {
					t.Errorf("client %d payload differs between sim and udp", i)
				}
				if udpOuts[i].Counts != simOuts[i].Counts {
					t.Errorf("client %d counters diverge:\nsim %+v\nudp %+v",
						i, simOuts[i].Counts, udpOuts[i].Counts)
				}
			}
		})
	}
}
