// Loopback: the same protocol code that runs in the simulator, on real UDP
// sockets — the paper's standalone measurement method (§2.1.1) against a
// live network stack.
//
// An in-process server accepts push transfers; the client pushes 64 KB
// under each protocol, then repeats the blast with 5 % injected loss in
// both directions to exercise go-back-n recovery end to end, verifying the
// whole-transfer checksum (§4's software checksum) each time.
//
//	go run ./examples/loopback
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"blastlan"
	"blastlan/internal/core"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

func main() {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1985)).Read(payload)
	want := blastlan.TransferChecksum(payload)

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("loopback sockets unavailable: %v", err)
	}
	defer conn.Close()

	// Pushes stream through a discarding sink: the running checksum is the evidence.
	received := make(chan blastlan.RecvResult, 1)
	srv := blastlan.NewUDPServer(conn)
	srv.SinkStream = func(wire.Req) (core.ChunkSink, func(blastlan.RecvResult), bool) {
		return func(int, []byte) {}, func(res blastlan.RecvResult) { received <- res }, true
	}
	go srv.Run()

	push := func(label string, proto blastlan.Protocol, strat blastlan.Strategy, lossy bool) {
		e, err := blastlan.DialUDP(conn.LocalAddr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer e.Close()
		if lossy {
			e.MangleTx = udplan.SeededDrop(0.05, 7)
			e.MangleRx = udplan.SeededDrop(0.05, 8)
		}
		res, err := blastlan.PushUDP(e, blastlan.Config{
			TransferID:     uint32(time.Now().UnixNano()),
			Bytes:          len(payload),
			ChunkSize:      1000,
			Protocol:       proto,
			Strategy:       strat,
			RetransTimeout: 100 * time.Millisecond,
			MaxAttempts:    100,
			Linger:         250 * time.Millisecond,
			ReceiverIdle:   5 * time.Second,
			Payload:        payload,
		})
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		if got := <-received; !got.Completed || got.Bytes != len(payload) || got.Checksum != want {
			log.Fatalf("%s: payload corrupted", label)
		}
		fmt.Printf("%-28s %10v  %4d pkts (%3d retransmitted)  checksum %04x ok\n",
			label, res.Elapsed.Round(10*time.Microsecond),
			res.DataPackets, res.Retransmits, want)
	}

	fmt.Printf("pushing 64 KB over UDP loopback (%s)\n\n", conn.LocalAddr())
	push("stop-and-wait", blastlan.StopAndWait, blastlan.GoBackN, false)
	push("sliding-window", blastlan.SlidingWindow, blastlan.GoBackN, false)
	push("blast / go-back-n", blastlan.Blast, blastlan.GoBackN, false)
	push("blast + 5% loss, go-back-n", blastlan.Blast, blastlan.GoBackN, true)
	push("blast + 5% loss, selective", blastlan.Blast, blastlan.Selective, true)

	fmt.Println("\nno 10 Mb/s wire here — but per-packet kernel round trips play the role of")
	fmt.Println("the paper's copies, so blast still beats stop-and-wait by a wide margin.")
}
