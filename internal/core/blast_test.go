package core

import (
	"strings"
	"testing"
	"time"

	"blastlan/internal/wire"
)

// stragglerEnv is a stageEnv whose return path delivers one late NAK,
// answering an earlier window, ahead of the receiver's answer to the first
// window that ends past after.
type stragglerEnv struct {
	*stageEnv
	after int
	nak   *wire.Packet
}

func (e *stragglerEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if e.nak != nil && e.reply != nil && e.high > e.after {
		p := e.nak
		e.nak = nil
		return p, nil
	}
	return e.stageEnv.Recv(timeout)
}

// A straggler NAK from an earlier window is not the current window's
// answer: its first-missing sequence lies below the window's base, where no
// fresh answer can put it. The sender waits on for the real answer, re-sends
// nothing, and a controller sees the window as clean.
func TestStaleNakIsNotTheWindowsAnswer(t *testing.T) {
	const packets, window = 40, 16
	for _, strategy := range []Strategy{Selective, GoBackN} {
		for _, controller := range []string{"", ControllerAIMD} {
			name := controller
			if name == "" {
				name = "fixed"
			}
			t.Run(strategy.String()+"/"+name, func(t *testing.T) {
				env := &stragglerEnv{stageEnv: newStageEnv(packets, 0), after: window}
				env.selective = strategy == Selective
				cfg, err := Config{
					TransferID: 7, Bytes: packets * 100, ChunkSize: 100, Payload: make([]byte, packets*100),
					Protocol: Blast, Strategy: strategy, Window: window, Controller: controller,
					RetransTimeout: 10 * time.Millisecond, MaxAttempts: 10,
				}.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				// The NAK the first window would have drawn had packet 3 been lost.
				env.nak, _ = cfg.nakPacket(3, packets, []uint32{3})
				res, err := sendBlast(env, cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				if env.nak != nil {
					t.Fatal("the straggler was never delivered; the test is vacuous")
				}
				if res.NaksReceived != 1 || res.Retransmits != 0 || res.Timeouts != 0 || res.DataPackets != packets {
					t.Errorf("naks %d, retransmits %d, timeouts %d, data packets %d; want 1, 0, 0, %d",
						res.NaksReceived, res.Retransmits, res.Timeouts, res.DataPackets, packets)
				}
				if got := strings.Join(env.log, " "); strings.Contains(got, "/1") {
					t.Errorf("wire log re-sends after the straggler: %s", got)
				}
				if (controller == "") != (res.Controller == nil) {
					t.Errorf("policy %q reported controller stats %v", controller, res.Controller)
				}
				if st := res.Controller; st != nil && (st.Growths != st.Windows || st.Holds+st.Cuts != 0) {
					t.Errorf("controller saw a lossy window: %+v", *st)
				}
			})
		}
	}
}
