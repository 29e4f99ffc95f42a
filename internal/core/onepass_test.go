package core

import (
	"testing"
	"time"

	"blastlan/internal/wire"
)

// codecEnv is loopEnv with the wire codec in the path: what arrives was
// encoded and decoded, as on a socket, so it carries a decode-computed
// payload sum.
type codecEnv struct{ *loopEnv }

func (e codecEnv) Send(p *wire.Packet) error {
	buf, err := p.Encode(nil)
	if err != nil {
		return err
	}
	q := new(wire.Packet)
	if err := wire.DecodeInto(q, buf); err != nil {
		return err
	}
	e.out <- q
	return nil
}
func (e codecEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }

// A streamed pull's checksum equals the transfer checksum of the payload
// whether the chunks' sums come from the decoder (no second pass over the
// bytes) or, for packets that were never decoded, from the bytes — at chunk
// sizes that put every other chunk at an odd offset, too.
func TestStreamedChecksumFromDecodeSums(t *testing.T) {
	for _, chunk := range []int{999, 1000, 1001} {
		for _, decoded := range []bool{true, false} {
			size := 23*chunk + 37
			want := SeededPayload(int64(chunk), size, chunk)
			cfg := Config{
				TransferID: 3, Bytes: size, ChunkSize: chunk, Window: 5,
				Protocol: Blast, Strategy: GoBackN,
				RetransTimeout: 500 * time.Millisecond, MaxAttempts: 20, Linger: 1, ReceiverIdle: 2 * time.Second,
			}
			scfg, rcfg := cfg, cfg
			scfg.Source = SeededSource(int64(chunk), size, chunk)
			rcfg.Sink = func(int, []byte) {}
			a, b := newLoopEnvPair()
			var sender Env = a
			if decoded {
				sender = codecEnv{a}
			}
			done := make(chan RecvResult, 1)
			go func() {
				r, err := RunReceiver(b, rcfg)
				if err != nil {
					t.Error(err)
				}
				done <- r
			}()
			if _, err := RunSender(sender, scfg); err != nil {
				t.Fatal(err)
			}
			if res := <-done; res.Checksum != TransferChecksum(want) || res.Bytes != size {
				t.Errorf("chunk %d, decoded=%v: streamed checksum %04x over %d bytes, payload's is %04x over %d",
					chunk, decoded, res.Checksum, res.Bytes, TransferChecksum(want), size)
			}
		}
	}
}

// deliverChunk reads a decoded chunk's bytes once — for the sink — and takes
// the checksum contribution from the decoder: a payload altered after
// decoding does not change it. A packet built by hand is summed from its
// bytes.
func TestDeliverChunkReusesDecodeSum(t *testing.T) {
	payload := []byte("an odd-length payload of 35 bytes!!")
	buf, err := (&wire.Packet{Type: wire.TypeData, Seq: 1, Total: 2, Payload: payload}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded := new(wire.Packet)
	if err := wire.DecodeInto(decoded, buf); err != nil {
		t.Fatal(err)
	}
	c := Config{ChunkSize: len(payload), Bytes: 2 * len(payload), Sink: func(int, []byte) {}}
	var want wire.SumAcc
	want.AddAt(len(payload), payload)

	var fromDecode, byHand RecvResult
	for i := range decoded.Payload {
		decoded.Payload[i] = 0 // had deliverChunk re-read the bytes, the sum would follow
	}
	deliverChunk(&fromDecode, c, decoded)
	deliverChunk(&byHand, c, &wire.Packet{Type: wire.TypeData, Seq: 1, Total: 2, Payload: payload})
	if fromDecode.sinkSum.Sum16() != want.Sum16() {
		t.Errorf("decoded packet contributed %04x, its decode-time payload sums to %04x", fromDecode.sinkSum.Sum16(), want.Sum16())
	}
	if byHand.sinkSum.Sum16() != want.Sum16() {
		t.Errorf("hand-built packet contributed %04x, its bytes sum to %04x", byHand.sinkSum.Sum16(), want.Sum16())
	}
}
