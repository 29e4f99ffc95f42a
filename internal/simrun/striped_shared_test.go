package simrun

import (
	"bytes"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/udplan"
)

// The striped fan-out itself is now substrate-agnostic (session.PullStriped):
// the same orchestrator — plan, per-stripe sessions, merger, per-stripe
// adversaries, partial-failure cancellation — runs over simulator processes
// and over UDP sockets. This suite pins that a striped multi-stream pull
// against a sharded session-layer server behaves identically on both.

// stripedSharedConfig is the logical transfer both substrates pull.
func stripedSharedConfig() core.Config {
	return core.Config{
		TransferID:     1,
		Bytes:          64000, // 64 chunks -> 4 stripes of 16
		ChunkSize:      1000,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Window:         16,
		RetransTimeout: 250 * time.Millisecond,
		MaxAttempts:    50,
		Linger:         100 * time.Millisecond,
		ReceiverIdle:   2 * time.Second,
	}
}

// runStripedShared runs the striped pull on the simulator through the
// shared session layer end to end: sharded session.Server on one station,
// session.PullStriped over a simFabric of per-stripe client stations.
func runStripedSharedSim(t *testing.T, streams int, adv params.Adversary, seed int64, into []byte) session.StripedResult {
	t.Helper()
	k := sim.NewKernel()
	n, err := sim.NewNetwork(k, params.Standalone3Com(), params.LossModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	serverSt := n.AddStation("server")
	srv := &session.Server{
		Idle:        time.Minute,
		Concurrency: streams + 1,
		Source:      core.SeededReqSource,
	}
	var srvErr error
	sim.Serve(n, serverSt, func(l *sim.Listener) { srvErr = srv.Run(l) })

	var res session.StripedResult
	var resErr error
	k.Go("striped-pull", func(p *sim.Proc) {
		f := &simFabric{
			Net:    n,
			Server: serverSt,
			P:      p,
			Name:   "stripe",
			Prepare: func(i int, st *sim.Station) error {
				if !adv.Active() {
					return nil
				}
				return st.SetAdversary(adv, seed+int64(i))
			},
		}
		opts := session.StripeOptions{Streams: streams}
		if into != nil {
			opts.Sink = func(off int, b []byte) { copy(into[off:], b) }
		}
		res, resErr = session.PullStriped(f, stripedSharedConfig(), opts)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if resErr != nil {
		t.Fatal(resErr)
	}
	return res
}

// runStripedSharedUDP runs the identical pull over UDP loopback.
func runStripedSharedUDP(t *testing.T, streams int, adv params.Adversary, seed int64, into []byte) session.StripedResult {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	defer conn.Close()
	udplan.SetConnBuffers(conn, 4<<20)
	srv := udplan.NewServer(conn)
	srv.Concurrency = streams + 1
	srv.Batch = 32
	srv.Source = core.SeededReqSource
	go srv.Run()

	opts := udplan.StripeOptions{
		Streams:       streams,
		Adversary:     adv,
		AdversarySeed: seed,
	}
	if into != nil {
		opts.Sink = func(off int, b []byte) { copy(into[off:], b) }
	}
	res, err := udplan.PullStriped(conn.LocalAddr().String(), stripedSharedConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStripedPullSharedLayer pins the tentpole property: a striped
// multi-stream pull through the shared transport/session layer reassembles
// the identical stream on the simulator and over UDP, with identical
// per-stripe protocol counters, under the same scripted per-stripe
// adversary.
func TestStripedPullSharedLayer(t *testing.T) {
	const streams = 4
	cfg := stripedSharedConfig()
	expected := core.SeededPayload(int64(cfg.Bytes), cfg.Bytes, cfg.ChunkSize)
	adv := params.Adversary{Script: stripeHostileScript}

	simBuf := make([]byte, cfg.Bytes)
	simRes := runStripedSharedSim(t, streams, adv, 21, simBuf)
	if simRes.Bytes != cfg.Bytes {
		t.Fatalf("sim striped pull delivered %d of %d bytes", simRes.Bytes, cfg.Bytes)
	}
	if !bytes.Equal(simBuf, expected) {
		t.Fatal("sim striped reassembly differs from the seeded stream")
	}
	if simRes.Checksum != core.TransferChecksum(expected) {
		t.Fatalf("sim merged checksum %04x, want %04x", simRes.Checksum, core.TransferChecksum(expected))
	}
	if simRes.Elapsed <= 0 {
		t.Errorf("sim striped elapsed %v not measured in virtual time", simRes.Elapsed)
	}
	recovered := 0
	for _, s := range simRes.Stripes {
		if s.Recv.NaksSent > 0 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no stripe needed recovery; the adversary scenario is vacuous")
	}

	udpBuf := make([]byte, cfg.Bytes)
	udpRes := runStripedSharedUDP(t, streams, adv, 21, udpBuf)
	if !bytes.Equal(udpBuf, expected) {
		t.Fatal("udp striped reassembly differs from the seeded stream")
	}
	if udpRes.Checksum != simRes.Checksum {
		t.Fatalf("checksums diverge: sim %04x udp %04x", simRes.Checksum, udpRes.Checksum)
	}
	for i := range simRes.Stripes {
		sc, uc := recvCounts(simRes.Stripes[i].Recv), recvCounts(udpRes.Stripes[i].Recv)
		if sc != uc {
			t.Errorf("stripe %d counters diverge:\nsim %+v\nudp %+v", i, sc, uc)
		}
		if simRes.Stripes[i].Recv.DataPackets == 0 {
			t.Errorf("stripe %d saw no data", i)
		}
	}
}
