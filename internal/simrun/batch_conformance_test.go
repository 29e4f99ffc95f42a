package simrun

import (
	"fmt"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
)

// udpAvailable reports whether loopback sockets work in this environment.
func udpAvailable() bool {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// TestBatchedPathPropertyGrid exercises {saw, sw, blast×4} × {reorder, dup,
// corrupt, jitter} seeded adversaries over the batched UDP path at batch
// sizes of batchRows: every grid point must complete with a byte-identical
// payload hash at every batch size. (Counters are timing-dependent under
// seeded adversaries on a wall clock, so — as in seededConformance —
// payload integrity and completion are the pinned properties here;
// scriptedConformance pins counters.)
func TestBatchedPathPropertyGrid(t *testing.T) {
	if !udpAvailable() {
		t.Skip("no UDP loopback")
	}
	if testing.Short() {
		t.Skip("wall-clock grid")
	}
	kinds := []struct {
		name string
		adv  params.Adversary
	}{
		{"reorder", params.Adversary{ReorderProb: 0.10, ReorderDepth: 3}},
		{"duplicate", params.Adversary{DuplicateProb: 0.10}},
		{"corrupt", params.Adversary{CorruptProb: 0.06}},
		{"jitter", params.Adversary{JitterMax: 500 * time.Microsecond}},
	}
	variants := []struct {
		name  string
		proto core.Protocol
		strat core.Strategy
	}{
		{"saw", core.StopAndWait, core.GoBackN},
		{"sw", core.SlidingWindow, core.GoBackN},
		{"blast-full-no-nak", core.Blast, core.FullNoNak},
		{"blast-full-nak", core.Blast, core.FullNak},
		{"blast-go-back-n", core.Blast, core.GoBackN},
		{"blast-selective", core.Blast, core.Selective},
	}
	payload := advPayload(8000, 13)
	for _, k := range kinds {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", k.name, v.name), func(t *testing.T) {
				cfg := core.Config{
					TransferID:     1,
					Bytes:          len(payload),
					ChunkSize:      1000,
					Protocol:       v.proto,
					Strategy:       v.strat,
					RetransTimeout: 100 * time.Millisecond,
					MaxAttempts:    300,
					// The linger must outlive Tr: a reorder hold can complete
					// the receiver silently (full-no-nak never acks a gap-fill),
					// and the ack then rides the sender's timeout retransmission
					// — which must still find the receiver alive.
					Linger:       300 * time.Millisecond,
					ReceiverIdle: 2 * time.Second,
					Payload:      payload,
				}
				for _, row := range batchRows {
					b := row.batch
					sc := Scenario{
						Name:      k.name + "/" + v.name,
						Adversary: k.adv,
						Config:    cfg,
						Seed:      int64(len(k.name)*31 + len(v.name)),
						Batch:     b,
					}
					out, err := sc.RunUDP()
					if err != nil {
						t.Fatalf("batch=%d: %v", b, err)
					}
					if !out.Completed {
						t.Errorf("batch=%d: incomplete", b)
					}
					if !out.IntactPayload(payload) {
						t.Errorf("batch=%d: payload hash differs", b)
					}
				}
			})
		}
	}
}
