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

// A refused REQ ends its session at once. The server admits one session at
// a time and refuses one size; a client that asks for that size three times
// gives up holding no slot, and a second client's pull is then admitted
// with no BUSY answer.
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
			good            core.RecvResult
			badEnd          time.Duration
			activeAtGiveUp  = -1
		)
		w.client("refused", h, 0, params.Adversary{}, 1, func(env core.Env) {
			cfg := tailConfig(1)
			cfg.Bytes = refused
			_, badErr = core.Request(env, cfg)
			badEnd, activeAtGiveUp = w.now(), srv.Active()
		})
		// MaxAttempts 3 gives up within 3 Tr; the second client asks after 8.
		var goodStart time.Duration
		w.client("valid", h, 8*tailTr, params.Adversary{}, 2, func(env core.Env) {
			goodStart = w.now()
			good, goodErr = core.Request(env, tailConfig(2))
		})
		if err := w.run(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(badErr, core.ErrGiveUp) {
			t.Fatalf("refused client: err %v, want ErrGiveUp", badErr)
		}
		if activeAtGiveUp != 0 {
			t.Errorf("%d sessions active when the refused client gave up, want 0", activeAtGiveUp)
		}
		if goodStart <= badEnd {
			t.Fatalf("the valid pull started at %v, before the refused client gave up at %v", goodStart, badEnd)
		}
		if goodErr != nil || !good.Completed {
			t.Fatalf("valid pull: completed %v, err %v", good.Completed, goodErr)
		}
		if good.Refusals != 0 {
			t.Errorf("valid pull drew %d BUSY answers, want 0", good.Refusals)
		}
	})
}
