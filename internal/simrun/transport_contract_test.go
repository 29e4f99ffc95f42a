package simrun

import (
	"errors"
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

// The internal/transport contract — Fan invokes every body exactly once; a
// dial/Prepare failure reaches the body as transport.FailedClient and lands
// in errs[i]; clients are closed after their body returns; Abort from a
// sibling unblocks a pending Recv with an error; a conn outlives its
// session, so a stripe whose first transfer dies resumes as a new transfer
// on the conn it was dialed — held against both substrates' fabrics here,
// where both are importable. simFabric is driven directly. udplan's stripe
// fabric is unexported, so it is driven through its one entry point,
// udplan.PullStriped, and observed through the hooks the fabric itself runs
// per dial (StripeOptions.MangleRx, the pre-dialed Endpoint).

const contractBytes = 24000

func contractConfig(tr time.Duration) core.Config {
	return core.Config{TransferID: 1, Bytes: contractBytes, ChunkSize: 1000,
		Protocol: core.Blast, Strategy: core.GoBackN, RetransTimeout: tr}
}

var contractSum = core.TransferChecksum(core.SeededPayload(contractBytes, contractBytes, 1000))

// contractServer serves the seeded stream, except that a mute server never
// answers the stripes past the first: their clients stay blocked in Recv.
func contractServer(mute bool) func(*session.Server) {
	return func(s *session.Server) {
		s.Concurrency, s.Idle = 8, time.Minute
		s.Source = func(r wire.Req) (core.ChunkSource, bool) {
			if mute && r.OffsetChunks > 0 {
				return nil, false
			}
			return core.SeededReqSource(r)
		}
	}
}

// deafToFirst drops every packet of stripe 0's first transfer, in either
// direction: that transfer's session hears nothing and dies.
func deafToFirst(p *wire.Packet) params.Mangle {
	return params.Mangle{Drop: p.Trans == contractConfig(0).TransferID}
}

// checkResumeOnSameConn holds a striped pull whose stripe 0 was deaf to its
// first transfer: the stripe resumed as a new transfer on the one conn it
// was dialed, re-fetched nothing it had verified, and the pull is intact.
func checkResumeOnSameConn(t *testing.T, res session.StripedResult, err error, dials []int) {
	t.Helper()
	s0 := res.Stripes[0].Resume
	if err != nil || res.Checksum != contractSum || dials[0] != 1 || s0.Sessions < 2 || s0.DupChunks != 0 {
		t.Errorf("resume on the same conn: err %v, checksum %04x, stripe 0 dialed %d times over %d sessions with %d dup chunks; want once, >= 2 sessions, none",
			err, res.Checksum, dials[0], s0.Sessions, s0.DupChunks)
	}
}

func TestTransportContract(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		w, err := newDESWorld(params.ModernGigabit(), 1)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := w.serve("server", contractServer(false))
		errPrepare := errors.New("injected prepare failure")
		w.k.Go("contract", func(p *sim.Proc) {
			const n = 3
			calls, stations := make([]int, n), make([]*sim.Station, n)
			failing := -1
			f := &simFabric{Net: w.n, Server: h.(*desHost).st, P: p, Prepare: func(i int, st *sim.Station) error {
				stations[i] = st
				if i == failing {
					return errPrepare
				}
				return nil
			}}
			pull := func(i int, c transport.Client) error {
				calls[i]++
				if stations[i].Closed() {
					t.Errorf("client %d closed before its body returned", i)
				}
				cfg := contractConfig(500 * time.Millisecond)
				cfg.TransferID = uint32(1 + i)
				res, err := core.Request(c, cfg)
				if err == nil && res.Checksum != contractSum {
					err = errors.New("payload differs from the seeded stream")
				}
				return err
			}
			for i, err := range f.Fan(n, pull) {
				if err != nil || calls[i] != 1 || !stations[i].Closed() {
					t.Errorf("body %d: ran %d times, err %v, client closed %v; want once, nil, true",
						i, calls[i], err, stations[i].Closed())
				}
			}
			failing = 1
			for i, err := range f.Fan(n, pull) {
				if want := i == failing; errors.Is(err, errPrepare) != want || (err != nil) != want || calls[i] != 2 {
					t.Errorf("Prepare failing for client 1: body %d ran %d times, err %v", i, calls[i], err)
				}
			}
			failing = -1
			var victim transport.Client
			f.Fan(2, func(i int, c transport.Client) error {
				if i == 1 {
					c.Compute(time.Millisecond) // let body 0 block first
					victim.Abort()
					return nil
				}
				victim = c
				t0 := c.Now()
				if _, err := c.Recv(30 * time.Second); err == nil || core.IsTimeout(err) || c.Now()-t0 > time.Second {
					t.Errorf("aborted Recv returned %v after %v, want a prompt non-timeout error", err, c.Now()-t0)
				}
				return nil
			})

			dials := make([]int, n)
			deaf := &simFabric{Net: w.n, Server: h.(*desHost).st, P: p, Name: "deaf", Prepare: func(i int, st *sim.Station) error {
				if dials[i]++; i > 0 {
					return nil
				}
				return st.SetAdversary(params.Adversary{Script: deafToFirst}, 1)
			}}
			res, err := session.PullStriped(deaf, contractConfig(10*time.Millisecond),
				session.StripeOptions{Streams: n, Repair: true, Backoff: time.Millisecond})
			checkResumeOnSameConn(t, res, err, dials)
		})
		if err := w.run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("udp", func(t *testing.T) {
		if !udpAvailable() {
			t.Skip("no UDP loopback")
		}
		const n = 3
		// pull runs one striped pull through the stripe fabric against a
		// fresh server. deaf makes stripe 0 deaf to its first transfer (and
		// repairs the stripe); deadFirst hands stripe 0 an endpoint that is
		// already closed. It reports the dials per stripe and stripe 0's
		// endpoint.
		pull := func(addr string, mute, deaf, deadFirst bool, tr time.Duration) (udplan.StripedResult, error, []int, *udplan.Endpoint) {
			w := newUDPWorld(UDP{})
			defer w.run()
			h, err := w.serve("server", contractServer(mute))
			if err != nil {
				t.Fatal(err)
			}
			var pre *udplan.Endpoint // handed to stripe 0 of a dialable server
			if addr == "" {
				addr = h.(*udpHost).addr
				if pre, err = udplan.Dial(addr); err != nil {
					t.Fatal(err)
				}
				if deadFirst {
					pre.Close()
				}
			}
			var mu sync.Mutex
			dials := make([]int, n)
			res, err := udplan.PullStriped(addr, contractConfig(tr), udplan.StripeOptions{
				Streams: n, Endpoint: pre, Repair: deaf, Backoff: time.Millisecond,
				MangleRx: func(i int) func(*wire.Packet) params.Mangle {
					mu.Lock()
					defer mu.Unlock()
					if dials[i]++; deaf && i == 0 {
						return deafToFirst
					}
					return nil
				}})
			return res, err, dials, pre
		}

		res, err, dials, pre := pull("", false, false, false, 500*time.Millisecond)
		if err != nil || res.Bytes != contractBytes || res.Checksum != contractSum || len(res.Stripes) != n {
			t.Fatalf("clean pull: err %v, %d bytes, %d stripes", err, res.Bytes, len(res.Stripes))
		}
		for i, d := range dials {
			if d != 1 || !res.Stripes[i].Recv.Completed {
				t.Errorf("stripe %d: dialed %d times, completed %v; want every body run exactly once", i, d, res.Stripes[i].Recv.Completed)
			}
		}
		if _, err := pre.Recv(0); !errors.Is(err, net.ErrClosed) {
			t.Errorf("stripe 0's endpoint after the pull: Recv err %v, want closed", err)
		}

		// An unresolvable port: every dial fails, locally. The first body to
		// see its FailedClient reports it (errs[i]); siblings that find the
		// pull already cancelled return clean.
		res, err, _, _ = pull("127.0.0.1:no-such-port", false, false, false, 500*time.Millisecond)
		failed := 0
		for _, s := range res.Stripes {
			if s.Err != nil {
				failed++
			}
		}
		if err == nil || failed == 0 {
			t.Errorf("undialable server: pull err %v, %d stripes failed; want the dial error on both", err, failed)
		}

		// Stripe 0 dies at once; its siblings, waiting on a mute server with
		// a 30 s timeout, must be aborted rather than waited for.
		t0 := time.Now()
		if _, err, _, _ = pull("", true, false, true, 30*time.Second); err == nil || time.Since(t0) > 5*time.Second {
			t.Errorf("dead sibling: pull err %v after %v; want a prompt abort", err, time.Since(t0))
		}

		res, err, dials, _ = pull("", false, true, false, 10*time.Millisecond)
		checkResumeOnSameConn(t, res, err, dials)
	})
}
