package udplan

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// stageCfg is the transfer of the staging parity script: three full windows
// of 40 and one of 17 whose last chunk is short, so a stage of 4 frames
// (batch 1) and one of 128 (batch 32) both get used, released in full flush
// units plus a remainder.
func stageCfg() core.Config {
	const packets, chunk, tail = 137, 1000, 500
	bytes := (packets-1)*chunk + tail
	return core.Config{
		TransferID: 3, Bytes: bytes, ChunkSize: chunk, Payload: core.SeededPayload(18, bytes, chunk),
		Protocol: core.Blast, Strategy: core.GoBackN, Window: 40,
		RetransTimeout: 5 * time.Second, MaxAttempts: 2,
	}
}

// stageWant is the datagram sequence that transfer puts on the wire when
// nothing is lost — written down from the protocol (every packet once, in
// sequence, FlagLast closing each window, the FIN behind the final ack), not
// recorded from either sender — and the flushes a ring of batch frames cuts
// it into.
func stageWant(t *testing.T, cfg core.Config, batch int) (want [][]byte, flushes int) {
	t.Helper()
	n := cfg.NumPackets()
	for seq := 0; seq < n; seq++ {
		p := &wire.Packet{Type: wire.TypeData, Trans: cfg.TransferID, Seq: uint32(seq), Total: uint32(n),
			Payload: cfg.Payload[seq*cfg.ChunkSize : min((seq+1)*cfg.ChunkSize, cfg.Bytes)]}
		if (seq+1)%cfg.Window == 0 || seq == n-1 {
			p.Flags = wire.FlagLast
		}
		b, err := p.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	fin, err := (&wire.Packet{Type: wire.TypeAck, Trans: cfg.TransferID, Flags: wire.FlagDone}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for base := 0; base < n; base += cfg.Window {
		unreliable := min(cfg.Window, n-base) - 1
		flushes += (unreliable+batch-1)/batch + 1 // the window's unreliable frames, then its reliable last
	}
	return append(want, fin), flushes + 1
}

// blastToSink runs the blast sender on s against a peer at sink that
// acknowledges each window after a pause — during which nothing of the next
// window may arrive — and returns every datagram the sink received, in order.
func blastToSink(t *testing.T, s core.Env, cfg core.Config, sink net.PacketConn, reply func(ack []byte)) [][]byte {
	t.Helper()
	type result struct {
		got [][]byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		var got [][]byte
		buf := make([]byte, MaxDatagram)
		var pkt wire.Packet
		for {
			sink.SetReadDeadline(time.Now().Add(3 * time.Second))
			k, _, err := sink.ReadFrom(buf)
			if err != nil {
				done <- result{got, fmt.Errorf("after %d datagrams: %v", len(got), err)}
				return
			}
			got = append(got, append([]byte(nil), buf[:k]...))
			if err := wire.DecodeInto(&pkt, got[len(got)-1]); err != nil {
				done <- result{got, err}
				return
			}
			if pkt.Type == wire.TypeAck && pkt.Flags&wire.FlagDone != 0 {
				done <- result{got, nil}
				return
			}
			if !pkt.IsLast() {
				continue
			}
			// The window is complete and unacknowledged: whatever the sender
			// has prepared of the next one must stay off the wire.
			sink.SetReadDeadline(time.Now().Add(3 * time.Millisecond))
			if k, _, err := sink.ReadFrom(buf); err == nil {
				done <- result{got, fmt.Errorf("%d bytes arrived behind the reliable last of window ending %d, before its ack", k, pkt.Seq)}
				return
			}
			ack, err := (&wire.Packet{Type: wire.TypeAck, Trans: pkt.Trans, Seq: pkt.Seq + 1, Total: pkt.Total}).Encode(nil)
			if err != nil {
				done <- result{got, err}
				return
			}
			reply(ack)
		}
	}()
	res, err := core.RunSender(s, cfg)
	if err != nil {
		t.Fatalf("sender: %v", err)
	}
	if fd, ok := s.(core.Datapath); ok {
		if err := fd.FlushBatch(); err != nil {
			t.Fatal(err)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("sink: %v", r.err)
	}
	if n := cfg.NumPackets(); res.DataPackets != n || res.Retransmits != 0 || res.Rounds != (n+cfg.Window-1)/cfg.Window {
		t.Errorf("sender counted %d data packets, %d retransmits, %d rounds for %d packets sent once", res.DataPackets, res.Retransmits, res.Rounds, n)
	}
	return r.got
}

// The blast sender stages each next window while it waits for the current
// one's ack. Through a client Endpoint and through a server session, at every
// tier, batched and not, that changes nothing a peer can see: the datagrams
// on the wire are exactly the protocol's sequence, nothing of a window
// arrives before its predecessor is acknowledged, and a released stage is
// cut into the same flushes the ring would have made.
func TestStagedBlastParity(t *testing.T) {
	for _, tier := range []Tier{TierGSO, TierMmsg, TierWriteTo} {
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("%s/batch%d", tier, batch), func(t *testing.T) {
				listen := func() net.PacketConn {
					c, err := net.ListenPacket("udp", "127.0.0.1:0")
					if err != nil {
						t.Skipf("no UDP loopback available: %v", err)
					}
					t.Cleanup(func() { c.Close() })
					SetConnBuffers(c, 1<<20)
					return c
				}
				cfg := stageCfg()
				want, wantFlushes := stageWant(t, cfg, batch)
				check := func(who string, got [][]byte, flushes int, tx *txPath) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("%s put %d datagrams on the wire, the protocol's sequence has %d", who, len(got), len(want))
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("%s datagram %d differs from the protocol's sequence", who, i)
						}
					}
					if flushes != wantFlushes {
						t.Errorf("%s flushed %d times, an unstaged ring of %d flushes %d times", who, flushes, batch, wantFlushes)
					}
					if tx.stage == nil || len(tx.stage.frames) != stageFactor*batch {
						t.Errorf("%s never staged, or not into %d frames: %+v", who, stageFactor*batch, tx.stage)
					} else if tx.stage.queued != 0 {
						t.Errorf("%s finished with %d frames still staged", who, tx.stage.queued)
					}
				}

				sink := listen()
				econn := listen()
				e := NewEndpoint(econn, sink.LocalAddr())
				e.MaxTier = tier
				e.SetBatch(batch)
				eFlushes := countFlushes(&e.txPath)
				eGot := blastToSink(t, e, cfg, sink, func(ack []byte) { sink.WriteTo(ack, econn.LocalAddr()) })
				check("endpoint", eGot, *eFlushes, &e.txPath)

				l := newServerListener(listen(), batch, MaxDatagram, tier)
				inbox := make(chan *slab, 1)
				se := newSessionEnv(l, sink.LocalAddr(), inbox)
				sFlushes := countFlushes(&se.txPath)
				sGot := blastToSink(t, se, cfg, sink, func(ack []byte) {
					b := l.rx.pool.Get().(*slab)
					b.n, b.seg = int32(copy(b.buf, ack)), 0
					inbox <- b
				})
				check("session", sGot, *sFlushes, &se.txPath)
			})
		}
	}
}

// Staging is for frames that go out back to back, untouched: a paced path
// and an Endpoint whose sends pass an adversary refuse to stage, a stage
// already filled becomes unreleasable the moment either is installed, and a
// rebuilt ring forgets it.
func TestStageRefusals(t *testing.T) {
	ea, _ := pipe(t)
	ea.SetBatch(8)
	stage := func(n int) (staged int) {
		for i := 0; i < n; i++ {
			if ea.Stage(data(uint32(i), "staged")) {
				staged++
			}
		}
		return staged
	}
	if got := stage(40); got != stageFactor*8 || ea.Staged() != got {
		t.Fatalf("staged %d frames (Staged %d) into a stage of %d", got, ea.Staged(), stageFactor*8)
	}
	ea.SetPacketGap(time.Microsecond)
	if ea.Stage(data(0, "paced")) || ea.Staged() != 0 {
		t.Errorf("a paced path staged, or offers %d frames for release", ea.Staged())
	}
	ea.SetPacketGap(0)
	ea.MangleTx = func(*wire.Packet) params.Mangle { return params.Mangle{} }
	if ea.Stage(data(0, "mangled")) || ea.Staged() != 0 {
		t.Errorf("an endpoint with MangleTx staged, or offers %d frames for release", ea.Staged())
	}
	ea.MangleTx = nil
	flushes := countFlushes(&ea.txPath)
	if err := ea.ReleaseStaged(0); err != nil || ea.Staged() != 0 || *flushes != 0 {
		t.Errorf("releasing nothing: err %v, %d still staged, %d flushes", err, ea.Staged(), *flushes)
	}
	if got := stage(3); got != 3 {
		t.Fatalf("staged %d of 3 frames into an emptied stage", got)
	}
	ea.SetBatch(4)
	if ea.Staged() != 0 {
		t.Errorf("%d frames staged against the old ring survive SetBatch", ea.Staged())
	}
}
