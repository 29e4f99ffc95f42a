package simrun

import (
	"reflect"
	"testing"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

const (
	reorderWindow  = 32
	reorderPackets = 8 * reorderWindow
)

// holdSecondToLast reorders without losing: each window's second-to-last
// first transmission is held until the window's FlagLast has overtaken it.
// Every policy's windows are multiples of 32 packets, so the hold always
// lands on a window's second-to-last packet.
func holdSecondToLast(p *wire.Packet) params.Mangle {
	if p.Type == wire.TypeData && p.Attempt == 0 && p.Seq%reorderWindow == reorderWindow-2 {
		return params.Mangle{Hold: 1}
	}
	return params.Mangle{}
}

// Reordering is not loss, on both substrates alike: a pull whose every
// window's FlagLast overtakes the packet before it NAKs the first window
// only. That NAK's answer is the late packet itself, which opens the
// receiver's reorder window; every later gapped FlagLast is held until the
// gap fills and is acknowledged at once. So each pull sends exactly one
// NAK, and its only duplicates are the first window's repair (one packet
// under selective repeat, two under go-back-n), under the fixed schedule
// and under every policy. The receiver's counters are equal on the DES and
// over UDP.
//
// Recovery must be NAK-driven for counters to match, and a pull's sender is
// the server's: its RTO is learned from the estimator's 1 ms floor, since a
// REQ carries Tr but no MinRTO. Under the race detector a loopback round can
// outlast that floor, so a UDP pull whose sender timed out is run again; a
// timeout is timing, which conformance excludes. On the DES none may.
func TestReorderConformance(t *testing.T) {
	for _, strategy := range []core.Strategy{core.GoBackN, core.Selective} {
		for _, controller := range append([]string{""}, core.ControllerNames()...) {
			name := controller
			if name == "" {
				name = "fixed"
			}
			t.Run(strategy.String()+"/"+name, func(t *testing.T) {
				cfg := core.Config{
					TransferID: 1, Bytes: reorderPackets * tailChunk, ChunkSize: tailChunk,
					Protocol: core.Blast, Strategy: strategy, Window: reorderWindow, Controller: controller,
					RetransTimeout: tailTr, MaxAttempts: 10, Linger: 4 * tailTr,
				}
				var des *core.RecvResult
				tailWorlds(t, func(t *testing.T, mk func() substrate, virtual bool) {
					var res core.RecvResult
					for try := 1; ; try++ {
						r := runTail(t, mk, holdSecondToLast, pull(cfg, &res))
						timeouts := r.served.byID[cfg.TransferID].Timeouts
						if timeouts == 0 {
							break
						}
						if virtual || try == 3 {
							t.Fatalf("the sender timed out %d times on pull %d", timeouts, try)
						}
					}
					res.Elapsed, res.Data = 0, nil
					if !res.Completed || res.NaksSent != 1 || res.Duplicates > 2 {
						t.Errorf("completed %v with %d NAKs and %d duplicates, want 1 NAK and at most 2 duplicates", res.Completed, res.NaksSent, res.Duplicates)
					}
					if virtual {
						des = &res
					} else if des != nil && !reflect.DeepEqual(res, *des) {
						t.Errorf("UDP receiver %+v\nDES receiver %+v", res, *des)
					}
				})
			})
		}
	}
}
