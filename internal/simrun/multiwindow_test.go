package simrun

import (
	"testing"
	"time"

	"blastlan/internal/analytic"
	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/sim"
	"blastlan/internal/wire"
)

// The DES has no stage (sim.Endpoint implements neither core.Datapath nor
// core.Stager), so what the UDP substrate overlaps inside its
// acknowledgement waits must leave virtual time alone: a four-window blast
// costs exactly the serial multiblast formula (plus the propagation the
// formula leaves out: 2τ per window) when nothing is lost, and with one
// mid-window packet dropped its counters and elapsed time are the values
// pinned here from the commit before staging existed.
func TestMultiWindowTransferPinned(t *testing.T) {
	m := params.VKernel()
	const packets, window = 64, 16
	cfg := core.Config{
		TransferID: 42, Bytes: packets * params.DataPacketSize,
		Protocol: core.Blast, Strategy: core.GoBackN, Window: window,
		RetransTimeout: 50 * time.Millisecond, MaxAttempts: 20,
	}
	for _, tc := range []struct {
		name        string
		drop        uint32 // data packet lost on its first transmission (0: none)
		elapsed     time.Duration
		dataPackets int
		rounds      int
	}{
		{"clean", 0, analytic.TimeMultiblast(m, packets, window) + 4*2*m.Propagation, packets, 4},
		{"one loss", 21, 214_896_000, packets + 11, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Transfer(cfg, Options{Cost: m, Seed: 1,
				DropFilter: func(p *wire.Packet, to *sim.Station) bool {
					return tc.drop != 0 && p.Type == wire.TypeData && p.Seq == tc.drop && p.Attempt == 0
				}})
			if err != nil || res.Failed() {
				t.Fatalf("transfer: %v, send %v, recv %v", err, res.SendErr, res.RecvErr)
			}
			s := res.Send
			if s.Elapsed != tc.elapsed || s.DataPackets != tc.dataPackets || s.Rounds != tc.rounds ||
				s.Retransmits != tc.dataPackets-packets || s.Timeouts != 0 {
				t.Errorf("sender: elapsed %d ns, %d data packets, %d retransmits, %d rounds, %d timeouts; pinned %d ns, %d, %d, %d, 0",
					s.Elapsed, s.DataPackets, s.Retransmits, s.Rounds, s.Timeouts,
					tc.elapsed, tc.dataPackets, tc.dataPackets-packets, tc.rounds)
			}
			if r := res.Recv; !r.Completed || r.DataPackets != tc.dataPackets-min(1, int(tc.drop)) || r.AcksSent < 4 {
				t.Errorf("receiver: completed %v, %d data packets, %d acks", r.Completed, r.DataPackets, r.AcksSent)
			}
		})
	}
}
