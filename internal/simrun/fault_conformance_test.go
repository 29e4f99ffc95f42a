package simrun

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// Fault-injection conformance: a server that crashes after serving its 80th
// chunk and restarts 200ms later, implemented with the substrate's own
// crash mechanics — station close/reopen on the simulator, socket
// close/rebind on UDP — must yield the same recovered transfer through
// core.PullResume on both substrates: identical reassembled bytes, a resumed
// session on both, and (pinned exactly on the deterministic substrate) not a
// single verified chunk re-fetched.

const (
	fcChunk    = 1000
	fcChunks   = 200
	fcBytes    = fcChunk * fcChunks
	fcCrashAt  = 80
	fcDowntime = 200 * time.Millisecond
)

func fcFaults() params.Faults {
	return params.Faults{CrashAfterChunks: []int64{fcCrashAt}, Downtime: fcDowntime}
}

func fcConfig() core.Config {
	return core.Config{
		TransferID:     7,
		Bytes:          fcBytes,
		ChunkSize:      fcChunk,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		RetransTimeout: 100 * time.Millisecond,
		// One REQ round per session: recovery belongs to the resume layer's
		// offset REQs (see FaultScenario).
		MaxAttempts: 1,
	}
}

// fcSource streams the seeded stream and fires crash on the trigger's
// schedule — the serving side both substrates share.
func fcSource(trigger *params.CrashTrigger, crash func()) func(wire.Req) (core.ChunkSource, bool) {
	return func(r wire.Req) (core.ChunkSource, bool) {
		base, ok := core.SeededReqSource(r)
		if !ok {
			return nil, false
		}
		return func(seq int, dst []byte) []byte {
			if trigger.OnChunk() {
				crash()
			}
			return base(seq, dst)
		}, true
	}
}

// runFaultConformanceSim recovers the transfer on the simulator: the crash
// closes the serving station mid-blast; a kernel timer flushes, reopens and
// re-serves it after the downtime.
func runFaultConformanceSim(t *testing.T) ([]byte, core.ResumeStats) {
	t.Helper()
	k := sim.NewKernel()
	n, err := sim.NewNetwork(k, params.ModernGigabit(), params.LossModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverSt := n.AddStation("server")
	trigger := fcFaults().Trigger()

	var srvErr error
	srv := &session.Server{Concurrency: 2, Idle: 5 * time.Minute, SessionIdle: 2 * time.Second}
	var crash func()
	srv.Source = fcSource(trigger, func() { crash() })
	var runServer func()
	runServer = func() {
		sim.Serve(n, serverSt, func(l *sim.Listener) {
			if err := srv.Run(l); err != nil && srvErr == nil {
				srvErr = err
			}
		})
	}
	crash = func() {
		if serverSt.Closed() {
			return
		}
		serverSt.Close()
		k.After(fcDowntime, func() {
			serverSt.FlushRx()
			serverSt.Reopen()
			runServer()
		})
	}
	runServer()

	var (
		data   []byte
		rstats core.ResumeStats
		cliErr error
	)
	clientSt := n.AddStation("client")
	k.Go("client", func(p *sim.Proc) {
		c := sim.NewEndpoint(p, clientSt, serverSt)
		var res core.RecvResult
		res, rstats, cliErr = core.PullResume(c, fcConfig(), core.ResumeOptions{
			Backoff: 50 * time.Millisecond,
			Seed:    1,
		})
		data = res.Data
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if srvErr != nil {
		t.Fatalf("sim server: %v", srvErr)
	}
	if cliErr != nil {
		t.Fatalf("sim client: %v", cliErr)
	}
	return data, rstats
}

// runFaultConformanceUDP recovers the same transfer over real UDP loopback:
// the crash closes the serving socket under its sessions; after the downtime
// a fresh socket binds the same port and a new server incarnation takes
// over.
func runFaultConformanceUDP(t *testing.T) ([]byte, core.ResumeStats) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := conn.LocalAddr().String()
	trigger := fcFaults().Trigger()

	var (
		mu      sync.Mutex
		curConn net.PacketConn
	)
	srvDone := make(chan error, 2)
	var crash func()
	start := func(c net.PacketConn) {
		srv := udplan.NewServer(c)
		srv.Concurrency = 2
		srv.SessionIdle = 2 * time.Second
		srv.Source = fcSource(trigger, func() { crash() })
		mu.Lock()
		curConn = c
		mu.Unlock()
		go func() { srvDone <- srv.Run() }()
	}
	restarted := make(chan struct{})
	crash = func() {
		mu.Lock()
		dead := curConn
		mu.Unlock()
		dead.Close()
		time.AfterFunc(fcDowntime, func() {
			defer close(restarted)
			c2, err := net.ListenPacket("udp", addr)
			if err != nil {
				t.Errorf("rebind %s: %v", addr, err)
				return
			}
			start(c2)
		})
	}
	start(conn)

	e, err := udplan.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetSocketBuffers(1 << 20)
	res, rstats, cliErr := core.PullResume(e, fcConfig(), core.ResumeOptions{
		Backoff:    50 * time.Millisecond,
		MaxResumes: 16,
		Seed:       1,
	})
	if cliErr != nil {
		t.Fatalf("udp client: %v", cliErr)
	}

	<-restarted // both incarnations exist before teardown
	mu.Lock()
	curConn.Close()
	mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-srvDone; err != nil {
			t.Fatalf("udp server: %v", err)
		}
	}
	return res.Data, rstats
}

// TestFaultConformance pins crash-recovery identity across substrates: the
// simulator's recovered bytes are the seeded stream, recovery goes through a
// resumed session that re-fetches only unverified chunks, and real UDP —
// with its own socket-level crash mechanics — reassembles byte-identical
// data.
func TestFaultConformance(t *testing.T) {
	simData, simStats := runFaultConformanceSim(t)

	want := core.SeededPayload(int64(fcBytes), fcBytes, fcChunk)
	if !bytes.Equal(simData, want) {
		t.Fatal("sim recovered bytes differ from the seeded stream")
	}
	if simStats.Sessions != 2 {
		t.Fatalf("sim sessions = %d, want exactly 2 (one crash, one resume)", simStats.Sessions)
	}
	if simStats.DupChunks != 0 {
		t.Fatalf("sim resume re-fetched %d verified chunks", simStats.DupChunks)
	}
	if simStats.ResumedChunks == 0 || simStats.ResumedChunks >= fcChunks {
		t.Fatalf("sim resume re-requested %d of %d chunks; want a strict mid-transfer tail",
			simStats.ResumedChunks, fcChunks)
	}

	udpData, udpStats := runFaultConformanceUDP(t)
	if !bytes.Equal(udpData, simData) {
		t.Fatal("recovered bytes differ between sim and udp")
	}
	if udpStats.Sessions < 2 {
		t.Fatalf("udp sessions = %d; the crash did not force a resume", udpStats.Sessions)
	}
}
