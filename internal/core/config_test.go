package core

import (
	"errors"
	"testing"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/wire"
)

func TestWithDefaults(t *testing.T) {
	c, err := Config{Bytes: 64 * 1024}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.ChunkSize != params.DataPacketSize || c.AckSize != params.AckPacketSize {
		t.Errorf("default sizes: %d/%d", c.ChunkSize, c.AckSize)
	}
	if c.RetransTimeout != 100*time.Millisecond {
		t.Errorf("default Tr = %v", c.RetransTimeout)
	}
	if c.MaxAttempts != 10000 {
		t.Errorf("default MaxAttempts = %d", c.MaxAttempts)
	}
	if c.Linger <= 0 || c.ReceiverIdle != 0 {
		t.Errorf("linger %v, receiverIdle %v", c.Linger, c.ReceiverIdle)
	}
	if c.receiverIdle() <= c.RetransTimeout {
		t.Error("receiver idle must exceed Tr")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                        // no bytes
		{Bytes: -3},               // negative
		{Bytes: 1, ChunkSize: -1}, // bad chunk
		{Bytes: 1, AckSize: -1},   // bad ack size
		{Bytes: 1, Window: -2},    // bad window
		{Bytes: 1, Protocol: 99},  // unknown protocol
		{Bytes: 1, Strategy: 17},  // unknown strategy
		{Bytes: 1, MaxAttempts: -1},
		{Bytes: 1, RetransTimeout: -time.Second},
		{Bytes: 4, Payload: []byte{1, 2}}, // length mismatch
		{Bytes: 70000, ChunkSize: 70000, Payload: make([]byte, 70000)},                        // chunk > wire.AbsMaxPayload
		{Bytes: 8, Payload: make([]byte, 8), Source: func(int, []byte) []byte { return nil }}, // both sources
	}
	for i, c := range bad {
		if _, err := c.withDefaults(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadConfig", i, c, err)
		}
	}
}

func TestNumPackets(t *testing.T) {
	cases := []struct {
		bytes, chunk, want int
	}{
		{64 * 1024, 1024, 64},
		{1, 1024, 1},
		{1025, 1024, 2},
		{0, 1024, 0},
		{64 * 1024, 0, 64}, // default chunk
	}
	for _, cse := range cases {
		c := Config{Bytes: cse.bytes, ChunkSize: cse.chunk}
		if got := c.NumPackets(); got != cse.want {
			t.Errorf("NumPackets(%d,%d) = %d, want %d", cse.bytes, cse.chunk, got, cse.want)
		}
	}
}

func TestDataPacketSimulated(t *testing.T) {
	c, _ := Config{Bytes: 2000, TransferID: 9}.withDefaults()
	p := c.fillData(new(wire.Packet), 0, 2, 0, false)
	if p.VirtualSize != 1024 || p.Payload != nil {
		t.Errorf("first packet: %+v", p)
	}
	last := c.fillData(new(wire.Packet), 1, 2, 3, true)
	if last.VirtualSize != 2000-1024 {
		t.Errorf("ragged last packet size = %d", last.VirtualSize)
	}
	if !last.IsLast() {
		t.Error("FlagLast missing")
	}
	if last.Attempt != 3 || last.Trans != 9 || last.Total != 2 {
		t.Errorf("metadata: %+v", last)
	}
	// Attempt saturates rather than wrapping.
	big := c.fillData(new(wire.Packet), 0, 2, 1000, false)
	if big.Attempt != 255 {
		t.Errorf("attempt = %d, want 255", big.Attempt)
	}
}

func TestDataPacketReal(t *testing.T) {
	payload := make([]byte, 2000)
	for i := range payload {
		payload[i] = byte(i)
	}
	c, err := Config{Bytes: 2000, Payload: payload}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p0 := c.fillData(new(wire.Packet), 0, 2, 0, false)
	if len(p0.Payload) != 1024 || p0.VirtualSize != 1024 {
		t.Errorf("p0: len=%d virt=%d", len(p0.Payload), p0.VirtualSize)
	}
	p1 := c.fillData(new(wire.Packet), 1, 2, 0, true)
	if len(p1.Payload) != 2000-1024 {
		t.Errorf("ragged payload len = %d", len(p1.Payload))
	}
	if p1.Payload[0] != payload[1024] {
		t.Error("payload slicing wrong")
	}
}

func TestAckPacket(t *testing.T) {
	c, _ := Config{Bytes: 64 * 1024}.withDefaults()
	partial := c.fillAck(new(wire.Packet), 32, 64)
	if partial.Flags&wire.FlagAllReceived != 0 {
		t.Error("partial ack must not claim completion")
	}
	if partial.VirtualSize != params.AckPacketSize {
		t.Errorf("ack size = %d", partial.VirtualSize)
	}
	full := c.fillAck(new(wire.Packet), 64, 64)
	if full.Flags&wire.FlagAllReceived == 0 {
		t.Error("complete ack must set FlagAllReceived")
	}
}

func TestNakPacket(t *testing.T) {
	c, _ := Config{Bytes: 64 * 1024}.withDefaults()
	nak, err := c.nakPacket(5, 64, []uint32{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if nak.Seq != 5 || nak.VirtualSize != params.AckPacketSize {
		t.Errorf("nak: %+v", nak)
	}
	if len(nak.SimMissing) != 3 {
		t.Errorf("SimMissing = %v", nak.SimMissing)
	}
	if got, err := wire.DecodeMissing(nak.Payload); err != nil || len(got) != 3 {
		t.Errorf("bitmap: %v %v", got, err)
	}

	// Real mode carries the encoded bitmap.
	cReal, _ := Config{Bytes: 2048, Payload: make([]byte, 2048)}.withDefaults()
	nakReal, err := cReal.nakPacket(0, 2, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(nakReal.Payload) == 0 {
		t.Error("real NAK must carry the bitmap")
	}
	missing, err := wire.DecodeMissing(nakReal.Payload)
	if err != nil || len(missing) != 1 || missing[0] != 0 {
		t.Errorf("bitmap round trip: %v %v", missing, err)
	}
}

func TestEnumStrings(t *testing.T) {
	names := map[string]string{
		StopAndWait.String():   "stop-and-wait",
		SlidingWindow.String(): "sliding-window",
		Blast.String():         "blast",
		BlastAsync.String():    "blast-dblbuf",
		FullNoNak.String():     "full-no-nak",
		FullNak.String():       "full-nak",
		GoBackN.String():       "go-back-n",
		Selective.String():     "selective",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if Protocol(42).String() == "" || Strategy(42).String() == "" {
		t.Error("unknown enums must stringify")
	}
}
