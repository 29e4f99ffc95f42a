package core

import (
	"errors"
	"os"
	"testing"
	"time"

	"blastlan/internal/wire"
)

// scriptEnv is a clockwork Env for handshake tests: the i-th packet sent
// earns replies[i] (nil: silence), a Recv with nothing pending advances the
// clock by its whole timeout, and sleeps are recorded instead of slept.
type scriptEnv struct {
	now     time.Duration
	replies []*wire.Packet
	pending *wire.Packet
	sent    int
	reqs    int // how many of the sent packets were REQs
	slept   []time.Duration
}

func (e *scriptEnv) Now() time.Duration    { return e.now }
func (e *scriptEnv) Compute(time.Duration) {}
func (e *scriptEnv) Send(p *wire.Packet) error {
	if p.Type == wire.TypeReq {
		e.reqs++
	}
	if e.sent < len(e.replies) {
		e.pending = e.replies[e.sent]
	}
	e.sent++
	return nil
}
func (e *scriptEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }
func (e *scriptEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if p := e.pending; p != nil {
		e.pending = nil
		return p, nil
	}
	e.now += timeout
	return nil, os.ErrDeadlineExceeded
}
func (e *scriptEnv) SleepFor(d time.Duration) {
	e.slept = append(e.slept, d)
	e.now += d
}

// Stat honors a BUSY refusal the way Request does: it sleeps the server's
// retry-after hint (Tr when the hint is empty) and asks again at once,
// instead of waiting out the rest of 4*Tr; a BUSY for some other transfer
// is not a refusal; and a server that only ever says BUSY costs exactly
// MaxAttempts requests.
func TestStatHonorsBusy(t *testing.T) {
	const tr = 100 * time.Millisecond
	cfg := Config{TransferID: 7, RetransTimeout: tr, MaxAttempts: 3}
	for _, tc := range []struct {
		name     string
		replies  []*wire.Packet
		wantSize int64
		wantErr  error
		wantSent int
		wantNaps []time.Duration
		wantNow  time.Duration
	}{
		{
			name:     "busy then reply",
			replies:  []*wire.Packet{Busy(7, 40*time.Millisecond), StatReply(7, 12345)},
			wantSize: 12345, wantSent: 2,
			wantNaps: []time.Duration{40 * time.Millisecond}, wantNow: 40 * time.Millisecond,
		},
		{
			name:     "empty hint sleeps Tr",
			replies:  []*wire.Packet{Busy(7, 0), StatReply(7, 9)},
			wantSize: 9, wantSent: 2,
			wantNaps: []time.Duration{tr}, wantNow: tr,
		},
		{
			name:     "another transfer's busy is ignored",
			replies:  []*wire.Packet{Busy(8, 40*time.Millisecond), StatReply(7, 5)},
			wantSize: 5, wantSent: 2,
			wantNow: 4 * tr, // silence as far as transfer 7 is concerned
		},
		{
			name:     "always busy gives up after MaxAttempts",
			replies:  []*wire.Packet{Busy(7, time.Millisecond), Busy(7, time.Millisecond), Busy(7, time.Millisecond), StatReply(7, 1)},
			wantErr:  ErrGiveUp,
			wantSent: 3,
			wantNaps: []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}, wantNow: 3 * time.Millisecond,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &scriptEnv{replies: tc.replies}
			size, err := Stat(env, cfg, "obj")
			if !errors.Is(err, tc.wantErr) || size != tc.wantSize {
				t.Fatalf("Stat = %d, %v; want %d, %v", size, err, tc.wantSize, tc.wantErr)
			}
			if env.sent != tc.wantSent {
				t.Errorf("sent %d stat REQs, want %d", env.sent, tc.wantSent)
			}
			if len(env.slept) != len(tc.wantNaps) {
				t.Fatalf("slept %v, want %v", env.slept, tc.wantNaps)
			}
			for i := range tc.wantNaps {
				if env.slept[i] != tc.wantNaps[i] {
					t.Errorf("slept %v, want %v", env.slept, tc.wantNaps)
				}
			}
			if env.now != tc.wantNow {
				t.Errorf("took %v of virtual time, want %v", env.now, tc.wantNow)
			}
		})
	}
}

// Copy honors a BUSY refusal the way Stat does — the same four cases — and
// a copy refused on every attempt fails as both a give-up and a BUSY, so
// blastcp -copy still exits with the BUSY code.
func TestCopyHonorsBusy(t *testing.T) {
	const tr = 100 * time.Millisecond
	cfg := Config{TransferID: 7, RetransTimeout: tr, MaxAttempts: 3}
	for _, tc := range []struct {
		name     string
		replies  []*wire.Packet
		wantSize int64
		wantErr  error
		wantBusy bool
		wantSent int
		wantNaps []time.Duration
		wantNow  time.Duration
	}{
		{
			name:     "busy then reply",
			replies:  []*wire.Packet{Busy(7, 40*time.Millisecond), StatReply(7, 12345)},
			wantSize: 12345, wantSent: 2,
			wantNaps: []time.Duration{40 * time.Millisecond}, wantNow: 40 * time.Millisecond,
		},
		{
			name:     "empty hint sleeps Tr",
			replies:  []*wire.Packet{Busy(7, 0), StatReply(7, 9)},
			wantSize: 9, wantSent: 2,
			wantNaps: []time.Duration{tr}, wantNow: tr,
		},
		{
			name:     "another transfer's busy is ignored",
			replies:  []*wire.Packet{Busy(8, 40*time.Millisecond), StatReply(7, 5)},
			wantSize: 5, wantSent: 2,
			wantNow: 4 * tr, // silence as far as transfer 7 is concerned
		},
		{
			name:     "always busy gives up after MaxAttempts",
			replies:  []*wire.Packet{Busy(7, time.Millisecond), Busy(7, time.Millisecond), Busy(7, time.Millisecond), StatReply(7, 1)},
			wantErr:  ErrGiveUp,
			wantBusy: true,
			wantSent: 3,
			wantNaps: []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}, wantNow: 3 * time.Millisecond,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &scriptEnv{replies: tc.replies}
			size, err := Copy(env, cfg, "obj", "127.0.0.1:9", nil)
			if !errors.Is(err, tc.wantErr) || size != tc.wantSize {
				t.Fatalf("Copy = %d, %v; want %d, %v", size, err, tc.wantSize, tc.wantErr)
			}
			var busy *BusyError
			if errors.As(err, &busy) != tc.wantBusy {
				t.Errorf("Copy error %v: is a BUSY refusal %v, want %v", err, !tc.wantBusy, tc.wantBusy)
			}
			if env.sent != tc.wantSent {
				t.Errorf("sent %d copy REQs, want %d", env.sent, tc.wantSent)
			}
			if len(env.slept) != len(tc.wantNaps) {
				t.Fatalf("slept %v, want %v", env.slept, tc.wantNaps)
			}
			for i := range tc.wantNaps {
				if env.slept[i] != tc.wantNaps[i] {
					t.Errorf("slept %v, want %v", env.slept, tc.wantNaps)
				}
			}
			if env.now != tc.wantNow {
				t.Errorf("took %v of virtual time, want %v", env.now, tc.wantNow)
			}
		})
	}
}

// Push honors a BUSY refusal of its announcement the way Request and Stat
// do: it sleeps the server's retry-after hint (Tr when the hint is empty)
// and announces again at once, instead of dropping the reply and waiting out
// Tr; a BUSY for some other transfer is not a refusal; and a server that
// only ever says BUSY costs exactly MaxAttempts announcements.
func TestPushHonorsBusy(t *testing.T) {
	const tr = 100 * time.Millisecond
	cfg := Config{
		TransferID: 7, Bytes: 10, Payload: make([]byte, 10),
		Protocol: Blast, Strategy: GoBackN, RetransTimeout: tr, MaxAttempts: 3,
	}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// The one-packet transfer that follows an accepted announcement: the
	// go-ahead earns the data packet, which earns the final ack.
	goAheadPkt, doneAck := goAhead(c), c.fillAck(new(wire.Packet), 1, 1)
	for _, tc := range []struct {
		name     string
		replies  []*wire.Packet
		wantErr  error
		wantReqs int
		wantNaps []time.Duration
		wantNow  time.Duration
	}{
		{
			name:     "busy then go-ahead",
			replies:  []*wire.Packet{Busy(7, 40*time.Millisecond), goAheadPkt, doneAck},
			wantReqs: 2,
			wantNaps: []time.Duration{40 * time.Millisecond}, wantNow: 40 * time.Millisecond,
		},
		{
			name:     "empty hint sleeps Tr",
			replies:  []*wire.Packet{Busy(7, 0), goAheadPkt, doneAck},
			wantReqs: 2,
			wantNaps: []time.Duration{tr}, wantNow: tr,
		},
		{
			name:     "another transfer's busy is ignored",
			replies:  []*wire.Packet{Busy(8, 40*time.Millisecond), goAheadPkt, doneAck},
			wantReqs: 2,
			wantNow:  tr, // silence as far as transfer 7 is concerned
		},
		{
			name:     "always busy gives up after MaxAttempts",
			replies:  []*wire.Packet{Busy(7, time.Millisecond), Busy(7, time.Millisecond), Busy(7, time.Millisecond), goAheadPkt},
			wantErr:  ErrGiveUp,
			wantReqs: 3,
			wantNaps: []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}, wantNow: 3 * time.Millisecond,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &scriptEnv{replies: tc.replies}
			res, err := Push(env, cfg)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Push = %v; want %v", err, tc.wantErr)
			}
			if err == nil && res.DataPackets != 1 {
				t.Errorf("accepted push sent %d data packets, want 1", res.DataPackets)
			}
			if env.reqs != tc.wantReqs {
				t.Errorf("announced %d times, want %d", env.reqs, tc.wantReqs)
			}
			if len(env.slept) != len(tc.wantNaps) {
				t.Fatalf("slept %v, want %v", env.slept, tc.wantNaps)
			}
			for i := range tc.wantNaps {
				if env.slept[i] != tc.wantNaps[i] {
					t.Errorf("slept %v, want %v", env.slept, tc.wantNaps)
				}
			}
			if env.now != tc.wantNow {
				t.Errorf("took %v of virtual time, want %v", env.now, tc.wantNow)
			}
		})
	}
}
