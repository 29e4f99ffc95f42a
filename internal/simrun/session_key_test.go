package simrun

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// A session is one transfer, not one conn: the server routes by (source,
// transfer id) on every substrate.

const (
	keyChunk   = 1000
	keyPackets = 24 // transfer 2's packets
	keyTr      = 20 * time.Millisecond
)

// keyedOutcome is what the client of keyedTransfers saw.
type keyedOutcome struct {
	res    core.RecvResult
	err    error
	active int // sessions the server had admitted as transfer 2's first chunk landed
}

// keyedTransfers is one client on one conn. It asks for transfer 1, takes
// its first eight chunks and goes dark, so transfer 1's session stays alive
// and keeps retransmitting at the conn. Then it pulls transfer 2. As transfer
// 2's first chunk lands it notes how many sessions the server holds and
// re-sends transfer 1's REQ: a straggler of transfer 1, which must reach
// transfer 1's session and not transfer 2's.
func keyedTransfers(env core.Env, srv *session.Server) keyedOutcome {
	var out keyedOutcome
	cfg := core.Config{TransferID: 1, Bytes: 40 * keyChunk, ChunkSize: keyChunk,
		Protocol: core.Blast, Strategy: core.GoBackN, RetransTimeout: keyTr}
	req1 := func() *wire.Packet {
		return &wire.Packet{Type: wire.TypeReq, Trans: 1, Payload: wire.EncodeReq(core.ReqOf(cfg, false)),
			VirtualSize: params.AckPacketSize}
	}
	if out.err = env.Send(req1()); out.err != nil {
		return out
	}
	for got := 0; got < 8; {
		p, err := env.Recv(time.Second)
		if err != nil {
			out.err = fmt.Errorf("transfer 1: %w", err)
			return out
		}
		if p.Trans == 1 && p.Type == wire.TypeData {
			got++
		}
	}

	cfg.TransferID, cfg.Bytes, cfg.MaxAttempts = 2, keyPackets*keyChunk, 2
	first := true
	cfg.Sink = func(int, []byte) {
		if first {
			first = false
			out.active = srv.Active()
			if err := env.Send(req1()); err != nil && out.err == nil {
				out.err = err
			}
		}
	}
	res, err := core.Request(env, cfg)
	out.res = res
	if out.err == nil {
		out.err = err
	}
	return out
}

// checkKeyed judges transfer 2: at a cap of two it gets its own session at
// once, beside transfer 1's, and arrives intact, every packet it counted
// its own and every packet its session sent sent once; at a cap of one it
// is refused with BUSY.
func checkKeyed(t *testing.T, capacity int, out keyedOutcome, log *servedLog) {
	t.Helper()
	if capacity == 1 {
		var busy *core.BusyError
		if !errors.As(out.err, &busy) || log.n != 0 {
			t.Fatalf("transfer 2 at a cap of one: err %v, %d served; want BUSY and nothing served", out.err, log.n)
		}
		return
	}
	want := core.SeededChecksum(keyPackets*keyChunk, keyPackets*keyChunk, keyChunk)
	if out.err != nil || out.res.Checksum != want || out.res.DataPackets != keyPackets || out.res.Duplicates != 0 {
		t.Fatalf("transfer 2: err %v, checksum %04x (want %04x), %d data packets, %d dups; want %d and none",
			out.err, out.res.Checksum, want, out.res.DataPackets, out.res.Duplicates, keyPackets)
	}
	if out.active != 2 {
		t.Errorf("%d sessions admitted while transfer 2 ran, want 2: transfer 1's and its own", out.active)
	}
	ts, ok := log.byID[2]
	if !ok || log.n != 1 || ts.Packets != keyPackets || ts.Retransmits != 0 {
		t.Errorf("served %d transfers; transfer 2 %v: %d packets, %d retransmitted; want only it, %d and none",
			log.n, ok, ts.Packets, ts.Retransmits, keyPackets)
	}
}

// tallyListener is a listener that counts what every session it opens is
// handed, in the order the sessions opened.
type tallyListener struct {
	transport.Listener
	delivered []*int
}

func (l *tallyListener) Open() (transport.Conn, transport.Peer, error) {
	c, p, err := l.Listener.Open()
	if err != nil {
		return nil, nil, err
	}
	n := new(int)
	l.delivered = append(l.delivered, n)
	return tallyConn{c, n}, p, nil
}

func (l *tallyListener) ReplyBusy(msg transport.Message, retryAfter time.Duration) error {
	return l.Listener.(transport.BusyReplier).ReplyBusy(msg, retryAfter)
}

type tallyConn struct {
	transport.Conn
	n *int
}

func (c tallyConn) Deliver(msg transport.Message) {
	*c.n++
	c.Conn.Deliver(msg)
}

func keyedServer(capacity int, log *servedLog) func(*session.Server) {
	return func(s *session.Server) {
		s.Concurrency, s.Idle, s.RetryAfter = capacity, time.Minute, 10*time.Millisecond
		s.Source = core.SeededReqSource
		s.Done = log.done
	}
}

func TestSessionKeyedByTransfer(t *testing.T) {
	for _, capacity := range []int{2, 1} {
		// On the DES the listener is tallied: transfer 2's session is handed
		// its REQ and its own acks, and the straggler goes to transfer 1's.
		t.Run(fmt.Sprintf("cap%d/des", capacity), func(t *testing.T) {
			w, err := newDESWorld(params.ModernGigabit(), 1)
			if err != nil {
				t.Fatal(err)
			}
			var log servedLog
			h := &desHost{st: w.n.AddStation("server"), srv: &session.Server{}}
			keyedServer(capacity, &log)(h.srv)
			tally := &tallyListener{}
			sim.Serve(w.n, h.st, func(l *sim.Listener) {
				tally.Listener = l
				if err := h.srv.Run(tally); err != nil {
					t.Error(err)
				}
			})
			var out keyedOutcome
			w.client("client", h, 0, params.Adversary{}, 0, func(env core.Env) { out = keyedTransfers(env, h.srv) })
			if err := w.run(); err != nil {
				t.Fatal(err)
			}
			checkKeyed(t, capacity, out, &log)
			if capacity == 1 {
				return
			}
			if len(tally.delivered) != 2 {
				t.Fatalf("%d sessions opened, want 2", len(tally.delivered))
			}
			if own := 1 + out.res.AcksSent + out.res.NaksSent; *tally.delivered[1] != own || *tally.delivered[0] != 2 {
				t.Errorf("transfer 2's session was handed %d packets (its own: %d), transfer 1's %d (want its REQ and the straggler)",
					*tally.delivered[1], own, *tally.delivered[0])
			}
		})
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("cap%d/batch%d", capacity, batch), func(t *testing.T) {
				if !udpAvailable() {
					t.Skip("no UDP loopback")
				}
				w := newUDPWorld(UDP{Batch: batch})
				var log servedLog
				var srv *session.Server
				h, err := w.serve("server", func(s *session.Server) {
					keyedServer(capacity, &log)(s)
					srv = s
				})
				if err != nil {
					t.Fatal(err)
				}
				var out keyedOutcome
				w.client("client", h, 0, params.Adversary{}, 0, func(env core.Env) { out = keyedTransfers(env, srv) })
				if err := w.run(); err != nil {
					t.Fatal(err)
				}
				checkKeyed(t, capacity, out, &log)
			})
		}
	}
}

// A stat-only session holds its slot only as long as a finished transfer
// lingers (2·Tr + 100 ms), not for SessionIdle. At a cap of one with Tr 20
// ms, client A stats and goes silent; client B's pull, refused meanwhile,
// is admitted within 1 s of virtual time — not after the server's one-minute
// idle bound.
func TestStatOnlySessionReleasesSlot(t *testing.T) {
	const bytes = 8 * keyChunk
	w, err := newDESWorld(params.ModernGigabit(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := w.serve("server", func(s *session.Server) {
		s.Concurrency, s.Idle = 1, time.Minute
		s.Stat = func(wire.Req) (int64, bool) { return bytes, true }
		s.Source = core.SeededReqSource
	})
	cfg := core.Config{Bytes: bytes, ChunkSize: keyChunk, Protocol: core.Blast, Strategy: core.GoBackN, RetransTimeout: keyTr}
	var statErr, pullErr error
	var res core.RecvResult
	admitted := time.Duration(-1)
	w.client("a", h, 0, params.Adversary{}, 0, func(env core.Env) {
		c := cfg
		c.TransferID = 1
		_, statErr = core.Stat(env, c, "obj")
	})
	w.client("b", h, time.Millisecond, params.Adversary{}, 0, func(env core.Env) {
		c := cfg
		c.TransferID = 2
		c.Sink = func(int, []byte) {
			if admitted < 0 {
				admitted = env.Now()
			}
		}
		res, pullErr = core.Request(env, c)
	})
	if err := w.run(); err != nil {
		t.Fatal(err)
	}
	if statErr != nil || pullErr != nil || !res.Completed {
		t.Fatalf("stat: %v; pull: %v, completed %v", statErr, pullErr, res.Completed)
	}
	if admitted > time.Second {
		t.Errorf("B's pull was admitted at %v of virtual time; A's stat-only session held the slot", admitted)
	}
}
