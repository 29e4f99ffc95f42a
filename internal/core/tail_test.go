package core

import (
	"errors"
	"slices"
	"testing"
	"time"

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

// policyPull is onePacket driven by aimd from a path round trip of p: its
// REQ timer starts at max(1 ms, 3p), as a sender's first RTO would.
func policyPull(p time.Duration) Config {
	c := onePacket
	c.Controller, c.PathRTT = ControllerAIMD, p
	return c
}

// answered is the script of a REQ that is answered: silent REQs first, then
// onePacket's data packet and the sender's FIN for the receiver's ack.
func answered(t *testing.T, silent int) []*wire.Packet {
	t.Helper()
	c, err := onePacket.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return append(make([]*wire.Packet, silent), c.fillData(new(wire.Packet), 0, 1, 0, true), c.finPacket())
}

// A policy pull whose first REQ is lost asks again after the senders' timer
// started from the host's round trip p: max(1 ms, 3p), not Tr. The answer
// could be either REQ's, so the pull reports no SRTT.
func TestRequestReasksAfterPathRTO(t *testing.T) {
	for _, tc := range []struct{ path, want time.Duration }{
		{100 * time.Microsecond, time.Millisecond},
		{2 * time.Millisecond, 6 * time.Millisecond},
	} {
		env := &scriptEnv{replies: answered(t, 1)}
		res, err := Request(env, policyPull(tc.path))
		if err != nil || !res.Completed || res.Reqs != 2 {
			t.Fatalf("PathRTT %v: %v, completed %v after %d REQs; want 2", tc.path, err, res.Completed, res.Reqs)
		}
		if gap := env.reqAt[1] - env.reqAt[0]; gap != tc.want {
			t.Errorf("PathRTT %v: REQ re-asked after %v, want %v", tc.path, gap, tc.want)
		}
		if res.SRTT != 0 {
			t.Errorf("PathRTT %v: a re-asked pull reported SRTT %v, want 0", tc.path, res.SRTT)
		}
	}
}

// A silent server: each unanswered REQ doubles the wait, up to Tr, and the
// request gives up after the sum of MaxAttempts waits, as Request states.
func TestRequestBacksOffToTr(t *testing.T) {
	cfg := policyPull(2 * time.Millisecond)
	cfg.MaxAttempts = 7
	env := &scriptEnv{}
	res, err := Request(env, cfg)
	if !errors.Is(err, ErrGiveUp) || res.Reqs != 7 || res.SRTT != 0 {
		t.Fatalf("silent server: %v after %d REQs, SRTT %v; want a give-up after 7, SRTT 0", err, res.Reqs, res.SRTT)
	}
	ms := time.Millisecond
	want := []time.Duration{6 * ms, 12 * ms, 24 * ms, 48 * ms, 96 * ms, busyTr}
	var gaps []time.Duration
	for i := 1; i < len(env.reqAt); i++ {
		gaps = append(gaps, env.reqAt[i]-env.reqAt[i-1])
	}
	if !slices.Equal(gaps, want) {
		t.Errorf("REQs re-asked after %v, want %v", gaps, want)
	}
	if giveUp := 6*ms + 12*ms + 24*ms + 48*ms + 96*ms + 2*busyTr; env.now != giveUp {
		t.Errorf("gave up after %v, want 6+12+24+48+96 ms + 2·Tr = %v", env.now, giveUp)
	}
}

// On the fixed schedule with no MinRTO the REQ timer is pinned at Tr, as a
// sender's is: a host's round trip does not shorten it.
func TestFixedScheduleREQWaitsTr(t *testing.T) {
	cfg := onePacket
	cfg.PathRTT = 100 * time.Microsecond
	env := &scriptEnv{replies: answered(t, 1)}
	if _, err := Request(env, cfg); err != nil {
		t.Fatal(err)
	}
	if gap := env.reqAt[1] - env.reqAt[0]; gap != busyTr {
		t.Errorf("REQ re-asked after %v, want Tr = %v", gap, busyTr)
	}
}

// A pull whose first REQ is answered reports its round trip, the time to
// the first own packet, as SRTT; from a PathRTT, that sample folded in.
func TestRequestReportsREQRoundTrip(t *testing.T) {
	const lag = 300 * time.Microsecond
	for _, tc := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"fixed, no PathRTT", onePacket, lag},
		{"aimd, PathRTT 700µs", policyPull(700 * time.Microsecond), (7*700*time.Microsecond + lag) / 8},
	} {
		env := &scriptEnv{lag: lag, replies: answered(t, 0)}
		res, err := Request(env, tc.cfg)
		if err != nil || !res.Completed || res.Reqs != 1 {
			t.Fatalf("%s: %v, completed %v after %d REQs; want 1", tc.name, err, res.Completed, res.Reqs)
		}
		if res.SRTT != tc.want {
			t.Errorf("%s: SRTT %v, want %v", tc.name, res.SRTT, tc.want)
		}
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
