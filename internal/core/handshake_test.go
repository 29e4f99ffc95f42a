package core

import (
	"errors"
	"fmt"
	"os"
	"slices"
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
	reqs    int      // how many of the sent packets were REQs
	fins    int      // how many were FINs
	ids     []uint32 // the transfer id of each REQ
	slept   []time.Duration
}

func (e *scriptEnv) Now() time.Duration    { return e.now }
func (e *scriptEnv) Compute(time.Duration) {}
func (e *scriptEnv) Send(p *wire.Packet) error {
	if p.Type == wire.TypeReq {
		e.reqs++
		e.ids = append(e.ids, p.Trans)
	}
	if p.Type == wire.TypeAck && p.Flags&wire.FlagDone != 0 && len(p.Payload) == 0 {
		e.fins++
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

// busyExchange is one REQ exchange run under the shared BUSY table: answer
// is the script that follows its accepted REQ, named answerName in the
// first case's title; patience is how long one attempt waits; run performs
// the exchange and checks what an accepted one returns.
type busyExchange struct {
	answerName string
	answer     []*wire.Packet
	patience   time.Duration
	run        func(Env) error
}

const busyTr = 100 * time.Millisecond

// testHonorsBusy runs the four BUSY cases every exchange shares on
// transfer 7: the server's retry-after hint (Tr when the hint is empty) is
// slept and the REQ sent again at once, instead of waiting out the rest of
// the exchange's patience; a BUSY for some other transfer is not a refusal;
// and a server that only ever says BUSY costs exactly MaxAttempts requests
// and fails as both a give-up and a BUSY, so blastcp exits with the BUSY
// code.
func testHonorsBusy(t *testing.T, x busyExchange) {
	const hint = 40 * time.Millisecond
	then := func(first ...*wire.Packet) []*wire.Packet { return append(first, x.answer...) }
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		replies  []*wire.Packet
		refused  bool
		wantReqs int
		wantNaps []time.Duration
		wantNow  time.Duration
	}{
		{
			name:     "busy then " + x.answerName,
			replies:  then(Busy(7, hint)),
			wantReqs: 2, wantNaps: []time.Duration{hint}, wantNow: hint,
		},
		{
			name:     "empty hint sleeps Tr",
			replies:  then(Busy(7, 0)),
			wantReqs: 2, wantNaps: []time.Duration{busyTr}, wantNow: busyTr,
		},
		{
			name:     "another transfer's busy is ignored",
			replies:  then(Busy(8, hint)),
			wantReqs: 2, wantNow: x.patience, // silence as far as transfer 7 is concerned
		},
		{
			name:     "always busy gives up after MaxAttempts",
			replies:  then(Busy(7, ms), Busy(7, ms), Busy(7, ms)),
			refused:  true,
			wantReqs: 3, wantNaps: []time.Duration{ms, ms, ms}, wantNow: 3 * ms,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &scriptEnv{replies: tc.replies}
			err := x.run(env)
			var busy *BusyError
			refused := errors.Is(err, ErrGiveUp) && errors.As(err, &busy)
			if refused != tc.refused || !refused && err != nil {
				t.Fatalf("err = %v; want refused %v", err, tc.refused)
			}
			if env.reqs != tc.wantReqs {
				t.Errorf("sent %d REQs, want %d", env.reqs, tc.wantReqs)
			}
			if !slices.Equal(env.slept, tc.wantNaps) {
				t.Errorf("slept %v, want %v", env.slept, tc.wantNaps)
			}
			if env.now != tc.wantNow {
				t.Errorf("took %v of virtual time, want %v", env.now, tc.wantNow)
			}
		})
	}
}

// statAnswer is the size in the answer Stat and Copy accept: a stat reply,
// which is also a copy's final reply.
const statAnswer = 12345

// checkSize checks what an accepted Stat or Copy returned.
func checkSize(size int64, err error) error {
	if err == nil && size != statAnswer {
		return fmt.Errorf("size %d, want %d", size, statAnswer)
	}
	return err
}

// The stat reply comes straight from the server's accept hook, so a silent
// attempt is re-asked after Tr (it waited 4·Tr before a lost stat REQ was
// priced at one round trip).
func TestStatHonorsBusy(t *testing.T) {
	cfg := Config{TransferID: 7, RetransTimeout: busyTr, MaxAttempts: 3}
	testHonorsBusy(t, busyExchange{"reply", []*wire.Packet{StatReply(7, statAnswer)}, busyTr, func(env Env) error {
		return checkSize(Stat(env, cfg, "obj"))
	}})
}

func TestCopyHonorsBusy(t *testing.T) {
	cfg := Config{TransferID: 7, RetransTimeout: busyTr, MaxAttempts: 3}
	testHonorsBusy(t, busyExchange{"reply", []*wire.Packet{StatReply(7, statAnswer)}, 4 * busyTr, func(env Env) error {
		return checkSize(Copy(env, cfg, "obj", "127.0.0.1:9", nil))
	}})
}

// onePacket is the transfer Push and Request run under the BUSY table.
var onePacket = Config{
	TransferID: 7, Bytes: 10, Protocol: Blast, Strategy: GoBackN,
	RetransTimeout: busyTr, MaxAttempts: 3,
}

// An accepted push's go-ahead earns its data packet, which earns the final
// ack.
func TestPushHonorsBusy(t *testing.T) {
	cfg := onePacket
	cfg.Payload = make([]byte, cfg.Bytes)
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	answer := []*wire.Packet{goAhead(c), c.fillAck(new(wire.Packet), 1, 1)}
	testHonorsBusy(t, busyExchange{"go-ahead", answer, busyTr, func(env Env) error {
		res, err := Push(env, cfg)
		if err == nil && res.DataPackets != 1 {
			return fmt.Errorf("accepted push sent %d data packets, want 1", res.DataPackets)
		}
		return err
	}})
}

// An accepted request's data packet completes the transfer, and the
// sender's FIN answers the receiver's ack, releasing it from its linger.
// Silence before the first packet is a lost REQ, re-asked after Tr (it was
// 4·Tr, the idle bound of a transfer under way, before the re-ask).
func TestRequestHonorsBusy(t *testing.T) {
	c, err := onePacket.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	answer := []*wire.Packet{c.fillData(new(wire.Packet), 0, 1, 0, true), c.finPacket()}
	testHonorsBusy(t, busyExchange{"data", answer, busyTr, func(env Env) error {
		res, err := Request(env, onePacket)
		if err == nil && (!res.Completed || res.Bytes != onePacket.Bytes) {
			return fmt.Errorf("accepted request: %+v", res)
		}
		return err
	}})
}

// A resume after a failed session asks as a new transfer, id + k<<24 for the
// k-th, so the server opens a fresh session on the same conn; a re-ask after
// BUSY keeps its id; and the ids and naps are the same run to run. Here two
// sessions die in silence, the third is refused once and then served.
func TestResumeAsksAsNewTransfer(t *testing.T) {
	c, err := onePacket.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	resumed := func(k uint32) uint32 { return c.TransferID + k<<24 }
	served := c
	served.TransferID = resumed(2)
	replies := []*wire.Packet{nil, nil, Busy(resumed(2), time.Millisecond),
		served.fillData(new(wire.Packet), 0, 1, 0, true), served.finPacket()}
	run := func() ([]uint32, []time.Duration) {
		env := &scriptEnv{replies: replies}
		cfg := onePacket
		cfg.MaxAttempts = 1
		res, st, err := PullResume(env, cfg, ResumeOptions{Seed: 3})
		if err != nil || !res.Completed || st.Sessions != 4 || st.BusyWaits != 1 {
			t.Fatalf("err %v, completed %v, %d sessions, %d BUSY waits; want nil, true, 4, 1",
				err, res.Completed, st.Sessions, st.BusyWaits)
		}
		return env.ids, env.slept
	}
	ids, naps := run()
	if want := []uint32{c.TransferID, resumed(1), resumed(2), resumed(2)}; !slices.Equal(ids, want) {
		t.Errorf("REQ transfer ids %v, want %v", ids, want)
	}
	if ids2, naps2 := run(); !slices.Equal(ids, ids2) || !slices.Equal(naps, naps2) {
		t.Errorf("second run asked %v after naps %v; first %v after %v", ids2, naps2, ids, naps)
	}
}

// strayEnv is what a client hears while a session it moved on from still
// talks: every gap, a data packet of transfer stray, left times; then, like
// scriptEnv, silence.
type strayEnv struct {
	scriptEnv
	stray uint32
	gap   time.Duration
	left  int
}

func (e *strayEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if e.left == 0 || timeout < e.gap {
		return e.scriptEnv.Recv(timeout)
	}
	e.left--
	e.now += e.gap
	return &wire.Packet{Type: wire.TypeData, Trans: e.stray}, nil
}

// Stragglers of another transfer do not keep a receiver waiting: a pull
// whose REQ goes unanswered while a dead session's packets keep arriving
// gives up after its own patience for a first packet, Tr, not when the
// stragglers stop.
func TestStragglersDoNotFeedTheIdleWait(t *testing.T) {
	env := &strayEnv{stray: onePacket.TransferID + 1, gap: busyTr / 3, left: 100}
	cfg := onePacket
	cfg.MaxAttempts = 1
	if _, err := Request(env, cfg); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Request: %v, want a give-up", err)
	}
	if limit := busyTr + env.gap; env.now > limit {
		t.Errorf("gave up after %v (%d stragglers heard), want at most %v", env.now, 100-env.left, limit)
	}
}
