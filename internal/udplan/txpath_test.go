package udplan

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// sender is what the parity script drives: an Env with the one Datapath.
type sender interface {
	core.Env
	core.Datapath
}

// txScript drives one seeded packet script through s and returns the frames
// it must put on the wire, in order: mid-window data, a control packet
// interleaved behind queued data, a batch-limit shrink under queued frames,
// a paced stretch (the pacer flushes before it sleeps), and the short
// FlagLast tail.
func txScript(t *testing.T, s sender) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var want [][]byte
	send := func(p *wire.Packet) {
		t.Helper()
		if err := s.Send(p); err != nil {
			t.Fatal(err)
		}
		b, err := p.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	chunk := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	const total = 41
	for seq := uint32(0); seq < total-1; seq++ {
		switch seq {
		case 10:
			send(&wire.Packet{Type: wire.TypeAck, Trans: 3, Seq: 10})
		case 20:
			s.SetBatchLimit(4)
		case 30:
			// Above twice the pacer's quantum every packet is due a sleep
			// whatever credit the last overshoot left, so the flush count
			// does not depend on the scheduler.
			s.SetPacketGap(2*paceQuantum + 100*time.Microsecond)
		}
		send(&wire.Packet{Type: wire.TypeData, Trans: 3, Seq: seq, Total: total, Payload: chunk(1000)})
	}
	send(&wire.Packet{Type: wire.TypeData, Trans: 3, Seq: total - 1, Total: total, Flags: wire.FlagLast, Payload: chunk(500)})
	if err := s.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	return want
}

// countFlushes counts the flush calls a transmit path makes from here on.
func countFlushes(tx *txPath) *int {
	n := new(int)
	inner := tx.ring.flush
	tx.ring.flush = func(frames [][]byte, lens []int, k int) error {
		*n++
		return inner(frames, lens, k)
	}
	return n
}

// One txPath serves both kinds of sender, so the same script through a
// client Endpoint and through a server session must put the identical
// datagram sequence on the wire with the identical number of flush calls —
// at every tier of the ladder, batched and not.
func TestTxParityEndpointVsSession(t *testing.T) {
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
				sink := listen()
				collect := func(n int) [][]byte {
					t.Helper()
					got := make([][]byte, 0, n)
					buf := make([]byte, MaxDatagram)
					for len(got) < n {
						sink.SetReadDeadline(time.Now().Add(2 * time.Second))
						k, _, err := sink.ReadFrom(buf)
						if err != nil {
							t.Fatalf("datagram %d of %d never arrived: %v", len(got), n, err)
						}
						got = append(got, append([]byte(nil), buf[:k]...))
					}
					return got
				}

				e := NewEndpoint(listen(), sink.LocalAddr())
				e.MaxTier = tier
				e.SetBatch(batch)
				eFlushes := countFlushes(&e.txPath)
				want := txScript(t, e)
				eGot := collect(len(want))

				l := newServerListener(listen(), batch, MaxDatagram, tier)
				se := newSessionEnv(l, sink.LocalAddr(), make(chan *slab))
				sFlushes := countFlushes(&se.txPath)
				txScript(t, se)
				sGot := collect(len(want))

				if e.Tier() != se.Tier() {
					t.Fatalf("endpoint probed tier %s, session %s", e.Tier(), se.Tier())
				}
				for i := range want {
					if !bytes.Equal(eGot[i], want[i]) {
						t.Fatalf("endpoint datagram %d differs from the script", i)
					}
					if !bytes.Equal(sGot[i], want[i]) {
						t.Fatalf("session datagram %d differs from the script", i)
					}
				}
				if *eFlushes != *sFlushes {
					t.Errorf("endpoint flushed %d times, session %d", *eFlushes, *sFlushes)
				}
				if batch == 1 && *eFlushes != len(want) {
					t.Errorf("one-slot ring flushed %d times for %d packets", *eFlushes, len(want))
				}
				if batch > 1 && *eFlushes >= len(want) {
					t.Errorf("batch %d flushed %d times for %d packets: nothing was batched", batch, *eFlushes, len(want))
				}
				sink.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				if _, _, err := sink.ReadFrom(make([]byte, MaxDatagram)); err == nil {
					t.Error("more datagrams than the script sent")
				}
			})
		}
	}
}

// failFlush makes every flush of tx fail with err until the ring is rebuilt.
func failFlush(tx *txPath, err error) {
	tx.ring.flush = func([][]byte, []int, int) error { return err }
}

// A flush failure inside a call that cannot return it — SetBatch rebuilding
// the ring, SetBatchLimit shrinking under queued frames — is kept and
// reported exactly once, by the next Send or Recv.
func TestConfigFlushErrorResurfaces(t *testing.T) {
	boom := errors.New("boom")
	ea, _ := pipe(t)
	ea.SetBatch(8)
	failFlush(&ea.txPath, boom)
	for i := 0; i < 2; i++ {
		if err := ea.Send(data(uint32(i), "queued")); err != nil {
			t.Fatal(err)
		}
	}
	ea.SetBatch(4) // flushes the two queued frames through the failing ring
	if err := ea.Send(data(2, "next")); !errors.Is(err, boom) {
		t.Fatalf("Send after a failed SetBatch flush = %v, want the kept error", err)
	}
	if err := ea.Send(data(3, "after")); err != nil {
		t.Fatalf("kept error reported twice: %v", err)
	}

	failFlush(&ea.txPath, boom)
	ea.SetBatchLimit(1) // one frame is queued: the shrink flushes it
	if _, err := ea.Recv(0); !errors.Is(err, boom) {
		t.Fatalf("Recv after a failed SetBatchLimit flush = %v, want the kept error", err)
	}
}

// Close reports a failed final flush instead of swallowing it, and still
// releases the socket.
func TestCloseReturnsFlushError(t *testing.T) {
	boom := errors.New("boom")
	ea, _ := pipe(t)
	ea.SetBatch(8)
	if err := ea.Send(data(0, "queued")); err != nil {
		t.Fatal(err)
	}
	failFlush(&ea.txPath, boom)
	if err := ea.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the flush error", err)
	}
	if _, err := ea.conn.WriteTo([]byte("x"), ea.peer); !errors.Is(err, net.ErrClosed) {
		t.Errorf("socket still open after Close: %v", err)
	}
}

// A session body that leaves frames queued gets them flushed when it
// returns; a failure there goes to the server's log, not to nowhere.
func TestSpawnLogsFlushError(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	defer conn.Close()
	l := newServerListener(conn, 8, MaxDatagram, TierAuto)
	var mu sync.Mutex
	var lines []string
	l.logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	c := &serverConn{l: l, peer: conn.LocalAddr(), inbox: make(chan *slab)}
	c.Spawn("session", func(env core.Env) {
		failFlush(&env.(*sessionEnv).txPath, errors.New("boom"))
		if err := env.Send(data(0, "left in the ring")); err != nil {
			t.Error(err)
		}
	})
	l.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !bytes.Contains([]byte(lines[0]), []byte("boom")) {
		t.Fatalf("log after a failed post-body flush: %q", lines)
	}
}
