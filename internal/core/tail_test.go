package core

import (
	"errors"
	"testing"

	"blastlan/internal/wire"
)

// A lost control packet costs about a round trip, not a Tr-scale timer.

// A REQ the server never heard is asked again after Tr of silence, and
// RecvResult.Reqs counts both.
func TestRequestReasksSilentREQAfterTr(t *testing.T) {
	c, err := onePacket.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	env := &scriptEnv{replies: []*wire.Packet{nil, c.fillData(new(wire.Packet), 0, 1, 0, true), c.finPacket()}}
	res, err := Request(env, onePacket)
	if err != nil || !res.Completed {
		t.Fatalf("Request: %v, completed %v", err, res.Completed)
	}
	if env.now != busyTr || res.Reqs != 2 {
		t.Errorf("took %v and %d REQs, want %v and 2", env.now, res.Reqs, busyTr)
	}
}

// Once the transfer's first packet has arrived it is under way: the
// receiver sits through 4·Tr of silence before the attempt fails, and a
// server that never answers costs MaxAttempts·Tr.
func TestRequestIdleBoundAfterFirstPacket(t *testing.T) {
	two := onePacket
	two.Bytes, two.ChunkSize, two.MaxAttempts = 20, 10, 1
	c, err := two.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	env := &scriptEnv{replies: []*wire.Packet{c.fillData(new(wire.Packet), 0, 2, 0, false)}}
	if _, err := Request(env, two); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Request: %v, want a give-up", err)
	}
	if env.now != 4*busyTr {
		t.Errorf("gave up after %v, want 4·Tr = %v", env.now, 4*busyTr)
	}
	silent := &scriptEnv{}
	res, err := Request(silent, onePacket)
	if !errors.Is(err, ErrGiveUp) || silent.now != 3*busyTr || res.Reqs != 3 {
		t.Errorf("silent server: %v after %v and %d REQs, want a give-up after 3·Tr and 3", err, silent.now, res.Reqs)
	}
}

// The FIN is the one packet nobody answers: a sender that re-sent anything
// or timed out sends it twice; a loss-free one sends exactly one.
func TestLossyTransferSendsFINTwice(t *testing.T) {
	cfg := onePacket
	cfg.Payload = make([]byte, cfg.Bytes)
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ack := c.fillAck(new(wire.Packet), 1, 1)
	for _, tc := range []struct {
		name    string
		replies []*wire.Packet
		fins    int
	}{
		{"loss-free", []*wire.Packet{ack}, 1},
		{"lost last", []*wire.Packet{nil, ack}, 2},
	} {
		env := &scriptEnv{replies: tc.replies}
		res, err := RunSender(env, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if env.fins != tc.fins {
			t.Errorf("%s: %d FINs after %d retransmits and %d timeouts, want %d",
				tc.name, env.fins, res.Retransmits, res.Timeouts, tc.fins)
		}
	}
}
