package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// The core.Env packet-ownership rule, from both ends of the medium: a sender
// may overwrite its one packet the moment a send returns, a receiver's packet
// is its own until its next Recv, and every copy the medium takes comes back
// to the network's pool.

// payloadFor is the distinct payload of packet seq.
func payloadFor(seq int) []byte {
	return []byte(fmt.Sprintf("packet %03d carries its own bytes", seq))
}

// reuseSender sends count packets through one packet value, whose header,
// payload buffer and SimMissing buffer it scribbles over right after every
// send returns.
func reuseSender(count int, send func(p *Proc, pkt *wire.Packet)) func(*Proc) {
	return func(p *Proc) {
		pkt := &wire.Packet{Payload: make([]byte, 0, 64), SimMissing: make([]uint32, 0, 4)}
		for seq := 0; seq < count; seq++ {
			*pkt = wire.Packet{
				Type: wire.TypeData, Seq: uint32(seq), Total: uint32(count),
				Payload:     append(pkt.Payload[:0], payloadFor(seq)...),
				SimMissing:  append(pkt.SimMissing[:0], uint32(seq), uint32(seq+1)),
				VirtualSize: params.DataPacketSize,
			}
			send(p, pkt)
			pkt.Seq = 999
			for i := range pkt.Payload {
				pkt.Payload[i] = 0xEE
			}
			pkt.SimMissing[0], pkt.SimMissing[1] = 999, 999
		}
	}
}

// checkArrival verifies one received packet byte for byte against what was
// sent with its sequence number.
func checkArrival(t *testing.T, who string, pkt *wire.Packet, count int) {
	t.Helper()
	seq := int(pkt.Seq)
	switch {
	case seq >= count:
		t.Errorf("%s received seq %d: the sender's overwrite", who, pkt.Seq)
	case !bytes.Equal(pkt.Payload, payloadFor(seq)):
		t.Errorf("%s seq %d payload %q, sent %q", who, seq, pkt.Payload, payloadFor(seq))
	case len(pkt.SimMissing) != 2 || pkt.SimMissing[0] != uint32(seq) || pkt.SimMissing[1] != uint32(seq+1):
		t.Errorf("%s seq %d SimMissing %v, sent [%d %d]", who, seq, pkt.SimMissing, seq, seq+1)
	}
}

func TestSenderMayOverwriteAfterSend(t *testing.T) {
	const count = 24
	advs := []struct {
		name   string
		mangle func(seq uint32) params.Mangle
		copies int // deliveries per packet sent
	}{
		{"clean", func(uint32) params.Mangle { return params.Mangle{} }, 1},
		{"duplicate", func(uint32) params.Mangle { return params.Mangle{Duplicate: true} }, 2},
		{"hold", func(seq uint32) params.Mangle { return params.Mangle{Hold: int(seq % 3)} }, 1},
		{"delay", func(seq uint32) params.Mangle { return params.Mangle{Delay: time.Duration(seq%4) * time.Millisecond} }, 1},
	}
	sends := []struct {
		name      string
		broadcast bool
		send      func(p *Proc, src, dst *Station, pkt *wire.Packet)
	}{
		{"Send", false, func(p *Proc, src, dst *Station, pkt *wire.Packet) { src.Send(p, dst, pkt) }},
		{"SendAsync", false, func(p *Proc, src, dst *Station, pkt *wire.Packet) { src.SendAsync(p, dst, pkt) }},
		{"SendBroadcast", true, func(p *Proc, src, _ *Station, pkt *wire.Packet) { src.SendBroadcast(p, pkt) }},
	}
	for _, a := range advs {
		for _, s := range sends {
			t.Run(a.name+"/"+s.name, func(t *testing.T) {
				// Double-buffered, so SendAsync returns while its frame still
				// waits for the wire, and room in every interface for a burst.
				cost := params.DoubleBuffered(params.Standalone3Com())
				cost.RxBuffers = 4 * count
				k, n, src, dst := newTestNet(t, cost, params.NoLoss(), 1)
				other := n.AddStation("other")
				mangle := func(pkt *wire.Packet) params.Mangle { return a.mangle(pkt.Seq) }
				if err := n.SetAdversary(params.Adversary{Script: mangle}, 1); err != nil {
					t.Fatal(err)
				}
				k.Go("sender", reuseSender(count, func(p *Proc, pkt *wire.Packet) { s.send(p, src, dst, pkt) }))
				receivers := []*Station{dst}
				if s.broadcast {
					receivers = append(receivers, other)
				}
				received := map[*Station]int{}
				for _, st := range receivers {
					k.Go("receiver", func(p *Proc) {
						for {
							pkt, err := st.Recv(p, time.Second)
							if err != nil {
								return
							}
							checkArrival(t, st.Name, pkt, count)
							received[st]++
						}
					})
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				for _, st := range receivers {
					if received[st] != a.copies*count {
						t.Errorf("%s received %d packets, want %d", st.Name, received[st], a.copies*count)
					}
				}
			})
		}
	}
}

// No single-bit flip of a frame the codec built evades it (wire.FuzzCorrupt),
// so the adversary's corrupt-pass branch is driven here at its one step past
// the codec: the medium's copy becomes what the frame decodes to, keeping its
// simulated size. That frame lives in the adversary's scratch, which the next
// corruption overwrites; the copy must own its bytes.
func TestCorruptPassOwnsItsBytes(t *testing.T) {
	k, n, src, dst := newTestNet(t, params.Standalone3Com(), params.NoLoss(), 1)
	sent := &wire.Packet{Type: wire.TypeData, Seq: 3, Total: 4, Payload: payloadFor(3), VirtualSize: params.DataPacketSize}
	q := n.copyPkt(sent)
	frame, err := q.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var dec wire.Packet
	if err := wire.DecodeInto(&dec, frame); err != nil {
		t.Fatal(err)
	}
	dec.VirtualSize = q.VirtualSize
	q.set(&dec)
	for i := range frame {
		frame[i] = 0xEE
	}
	sent.Payload[0] = 0xEE
	n.deliverNow(src, dst, q)
	k.Go("receiver", func(p *Proc) {
		pkt, err := dst.Recv(p, -1)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Seq != 3 || !bytes.Equal(pkt.Payload, payloadFor(3)) || pkt.VirtualSize != params.DataPacketSize {
			t.Errorf("received seq %d payload %q on %d simulated bytes, sent seq 3 payload %q on %d",
				pkt.Seq, pkt.Payload, pkt.VirtualSize, payloadFor(3), params.DataPacketSize)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// After a whole two-party transfer, clean or under a seeded adversary that
// drops, corrupts, duplicates, holds and delays, every copy the medium made is
// back in its pool or is the one packet a station still lends.
func TestMediumCopiesReturnToPool(t *testing.T) {
	payload := core.SeededPayload(7, 96<<10, params.DataPacketSize)
	for _, c := range []struct {
		name string
		adv  params.Adversary
	}{
		{"clean", params.Adversary{}},
		{"seeded adversary", params.Adversary{
			Loss:          params.LossModel{PNet: 0.03},
			CorruptProb:   0.02,
			DuplicateProb: 0.05,
			ReorderProb:   0.05,
			ReorderDepth:  3,
			JitterMax:     200 * time.Microsecond,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, n, src, dst := newTestNet(t, params.ModernGigabit(), params.NoLoss(), 1)
			if err := n.SetAdversary(c.adv, 5); err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				TransferID: 1, Bytes: len(payload), Payload: payload,
				Protocol: core.Blast, Strategy: core.Selective, Window: 16,
				RetransTimeout: 20 * time.Millisecond,
			}
			var got core.RecvResult
			var sendErr, recvErr error
			k.Go("sender", func(p *Proc) { _, sendErr = core.RunSender(NewEndpoint(p, src, dst), cfg) })
			k.Go("receiver", func(p *Proc) { got, recvErr = core.RunReceiver(NewEndpoint(p, dst, src), cfg) })
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if sendErr != nil || recvErr != nil || !bytes.Equal(got.Data, payload) {
				t.Fatalf("transfer: send %v, recv %v, %d of %d bytes intact", sendErr, recvErr, got.Bytes, len(payload))
			}
			if c.adv.Active() && (n.Adv.Drops == 0 || n.Adv.Corrupts == 0 || n.Adv.Dups == 0 || n.Adv.Holds == 0 || n.Adv.Delays == 0) {
				t.Errorf("the adversary left a path untried: %+v", n.Adv)
			}
			// A straggler the adversary duplicated can still wait in an
			// interface nobody reads any more; flushing it is a drop path too.
			lent := 0
			for _, st := range n.Stations() {
				st.FlushRx()
				if st.lent != nil {
					lent++
				}
				if len(st.advHeld) != 0 {
					t.Errorf("%s still holds %d packets", st.Name, len(st.advHeld))
				}
			}
			if n.pkts == 0 || len(n.freePkts)+lent != n.pkts {
				t.Errorf("%d medium copies made, %d pooled and %d lent", n.pkts, len(n.freePkts), lent)
			}
		})
	}
}
