package simrun

import (
	"errors"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/wire"
)

// A refused REQ is answered with a Refusal and ends its session at once.
// The server admits one session at a time and refuses one size; a client
// that asks for that size fails on its first REQ with ErrBadConfig, holding
// no slot, and a second client's pull is then admitted with no BUSY answer.
func TestRejectedREQReleasesSlot(t *testing.T) {
	tailWorlds(t, func(t *testing.T, mk func() substrate, virtual bool) {
		const refused = 3 * tailChunk
		w := mk()
		var srv *session.Server
		h, err := w.serve("server", func(s *session.Server) {
			srv = s
			s.Concurrency, s.Idle = 1, time.Minute
			s.Source = func(r wire.Req) (core.ChunkSource, bool) {
				if r.Bytes == refused {
					return nil, false
				}
				return core.SeededReqSource(r)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var (
			badErr, goodErr error
			bad, good       core.RecvResult
			badEnd          time.Duration
			activeAtRefusal = -1
		)
		w.client("refused", h, 0, params.Adversary{}, 1, func(env core.Env) {
			cfg := tailConfig(1)
			cfg.Bytes = refused
			bad, badErr = core.Request(env, cfg)
			badEnd, activeAtRefusal = w.now(), srv.Active()
			// Over UDP the session ends just after its refusal leaves, and
			// the client may wake first.
			for !virtual && activeAtRefusal != 0 && w.now()-badEnd < tailTr {
				time.Sleep(time.Millisecond)
				activeAtRefusal = srv.Active()
			}
		})
		// The refusal ends the first client within a round trip; the second
		// asks after 8 Tr.
		var goodStart time.Duration
		w.client("valid", h, 8*tailTr, params.Adversary{}, 2, func(env core.Env) {
			goodStart = w.now()
			good, goodErr = core.Request(env, tailConfig(2))
		})
		if err := w.run(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(badErr, core.ErrBadConfig) {
			t.Fatalf("refused client: err %v, want ErrBadConfig", badErr)
		}
		if bad.Reqs != 1 {
			t.Errorf("refused client sent %d REQs, want 1", bad.Reqs)
		}
		if activeAtRefusal != 0 {
			t.Errorf("%d sessions active when the refused client was answered, want 0", activeAtRefusal)
		}
		if goodStart <= badEnd {
			t.Fatalf("the valid pull started at %v, before the refused client was answered at %v", goodStart, badEnd)
		}
		if goodErr != nil || !good.Completed {
			t.Fatalf("valid pull: completed %v, err %v", good.Completed, goodErr)
		}
		if good.Refusals != 0 {
			t.Errorf("valid pull drew %d BUSY answers, want 0", good.Refusals)
		}
	})
}
