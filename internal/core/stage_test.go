package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"blastlan/internal/wire"
)

// stageEnv is a clockwork sender-side Env with a stage: it plays the blast
// receiver itself (acks and NAKs computed from what reached "the wire"),
// drops scripted transmissions, and logs every frame in the order it hit the
// wire, so a staged run can be compared frame for frame with an unstaged
// one. Time only moves when a Recv times out.
type stageEnv struct {
	loopEnv
	now      time.Duration
	stageCap int             // frames the stage holds; 0: the substrate never stages
	drop     map[string]bool // transmissions lost on the wire, by "seq/attempt"
	total    int

	log       []string // frames on the wire, in order: "seq/attempt", "L" appended on FlagLast
	stage     []*wire.Packet
	released  int      // staged frames that reached the wire
	dropped   int      // staged frames a release forgot
	awaiting  bool     // a reliable last packet has left and its response has not been waited for yet
	early     []string // seqs staged at any other time
	got       []bool
	high      int
	reply     *wire.Packet
	selective bool
}

func newStageEnv(total, stageCap int, drop ...string) *stageEnv {
	e := &stageEnv{stageCap: stageCap, total: total, got: make([]bool, total), drop: map[string]bool{}}
	for _, d := range drop {
		e.drop[d] = true
	}
	return e
}

func (e *stageEnv) Now() time.Duration { return e.now }

// arrive puts one frame on the wire and lets the receiver react to it.
func (e *stageEnv) arrive(p *wire.Packet) {
	key := fmt.Sprintf("%d/%d", p.Seq, p.Attempt)
	tag := key
	if p.IsLast() {
		tag += "L"
	}
	e.log = append(e.log, tag)
	e.awaiting = p.IsLast()
	if e.drop[key] {
		return
	}
	e.got[p.Seq] = true
	if !p.IsLast() {
		return
	}
	e.high = max(e.high, int(p.Seq)+1)
	first := 0
	for first < e.total && e.got[first] {
		first++
	}
	c := Config{TransferID: p.Trans, AckSize: 64}
	if first >= e.high {
		e.reply = c.fillAck(new(wire.Packet), e.high, e.total)
		return
	}
	var missing []uint32
	for seq := first; e.selective && seq < e.high; seq++ {
		if !e.got[seq] {
			missing = append(missing, uint32(seq))
		}
	}
	e.reply, _ = c.nakPacket(first, e.total, missing)
}

func (e *stageEnv) Send(p *wire.Packet) error      { e.arrive(p); return nil }
func (e *stageEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }

func (e *stageEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	e.awaiting = false
	if p := e.reply; p != nil {
		e.reply = nil
		return p, nil
	}
	e.now += timeout
	return nil, os.ErrDeadlineExceeded
}

func (e *stageEnv) Stage(p *wire.Packet) bool {
	if len(e.stage) >= e.stageCap {
		return false
	}
	if !e.awaiting {
		e.early = append(e.early, fmt.Sprint(p.Seq))
	}
	e.stage = append(e.stage, p.Clone())
	return true
}

func (e *stageEnv) Staged() int { return len(e.stage) }

func (e *stageEnv) ReleaseStaged(n int) error {
	for _, p := range e.stage[:n] {
		e.arrive(p)
	}
	e.released += n
	e.dropped += len(e.stage) - n
	e.stage = e.stage[:0]
	return nil
}

// counters is what a staged and an unstaged run must agree on.
func counters(r SendResult) SendResult {
	r.Elapsed, r.Controller = 0, nil
	return r
}

// Whatever the loss script — a NAK or a silent timeout in a window whose
// successor is already staged, under any strategy, with fixed windows or a
// controller that cuts and grows them — the staged sender puts exactly the
// frames of the unstaged one on the wire, in the same order, and reports
// the same counters; frames are staged only while a response is awaited;
// recovery resends the current window's packets only and the staged window
// follows intact (attempt 0) once the current one is acknowledged; what a
// shrunken window cannot use is dropped, neither sent nor counted.
func TestStagedSenderMatchesUnstaged(t *testing.T) {
	for _, tc := range []struct {
		name       string
		strategy   Strategy
		controller string
		packets    int
		window     int
		stageCap   int
		drop       []string
		released   int // staged frames the run must have sent
		dropped    int
		wantLog    string // the frames around the recovery, as they must appear
	}{
		{name: "clean", strategy: GoBackN, packets: 20, window: 4, stageCap: 16, released: 4 * 3},
		{name: "short stage", strategy: GoBackN, packets: 20, window: 8, stageCap: 3, released: 3 + 3},
		{name: "nak go-back-n", strategy: GoBackN, packets: 12, window: 4, stageCap: 16, drop: []string{"1/0"},
			released: 6, wantLog: "0/0 1/0 2/0 3/0L 1/1 2/1 3/1L 4/0 5/0 6/0 7/0L"},
		{name: "nak selective", strategy: Selective, packets: 12, window: 4, stageCap: 16, drop: []string{"5/0", "6/0"},
			released: 6, wantLog: "4/0 5/0 6/0 7/0L 5/1 6/1L 8/0 9/0 10/0 11/0L"},
		{name: "nak full", strategy: FullNak, packets: 12, window: 4, stageCap: 16, drop: []string{"2/0"},
			released: 6, wantLog: "3/0L 0/1 1/1 2/1 3/1L 4/0 5/0 6/0 7/0L"},
		{name: "timeout", strategy: GoBackN, packets: 12, window: 4, stageCap: 16, drop: []string{"3/0"},
			released: 6, wantLog: "0/0 1/0 2/0 3/0L 3/1L 4/0 5/0 6/0 7/0L"},
		{name: "timeout full", strategy: FullNoNak, packets: 8, window: 4, stageCap: 16, drop: []string{"3/0"},
			released: 3, wantLog: "0/0 1/0 2/0 3/0L 0/1 1/1 2/1 3/1L 4/0 5/0 6/0 7/0L"},
		// aimd from 64: the NAK cuts the second window to 48, so of the 63
		// frames staged for it 47 go out and 16 are forgotten; later windows
		// grow by 16 past what was staged for them and send the rest fresh;
		// the last is what is left of the object.
		{name: "controller cuts then grows", strategy: GoBackN, controller: ControllerAIMD, packets: 400, window: 64, stageCap: 128,
			drop: []string{"10/0"}, released: 47 + 47 + 63 + 79 + 47, dropped: 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(stageCap int) (*stageEnv, SendResult) {
				env := newStageEnv(tc.packets, stageCap, tc.drop...)
				env.selective = tc.strategy == Selective
				cfg, err := Config{
					TransferID: 7, Bytes: tc.packets * 100, ChunkSize: 100, Payload: make([]byte, tc.packets*100),
					Protocol: Blast, Strategy: tc.strategy, Window: tc.window, Controller: tc.controller,
					RetransTimeout: 10 * time.Millisecond, MaxAttempts: 10,
				}.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sendBlast(env, cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				return env, res
			}
			plain, pres := run(0)
			staged, sres := run(tc.stageCap)
			if !reflect.DeepEqual(staged.log, plain.log) {
				t.Errorf("staged sender's frames differ from the unstaged one's:\n%v\n%v", staged.log, plain.log)
			}
			if counters(sres) != counters(pres) {
				t.Errorf("staged counters %+v, unstaged %+v", counters(sres), counters(pres))
			}
			if sres.DataPackets != len(staged.log) {
				t.Errorf("DataPackets %d, %d frames reached the wire", sres.DataPackets, len(staged.log))
			}
			if plain.released+plain.dropped != 0 {
				t.Errorf("a substrate that refuses to stage released %d, dropped %d", plain.released, plain.dropped)
			}
			if staged.released != tc.released || staged.dropped != tc.dropped {
				t.Errorf("released %d staged frames and dropped %d, want %d and %d", staged.released, staged.dropped, tc.released, tc.dropped)
			}
			if len(staged.early) > 0 {
				t.Errorf("staged outside a response wait: seqs %v", staged.early)
			}
			if got := strings.Join(staged.log, " "); !strings.Contains(got, tc.wantLog) {
				t.Errorf("wire log\n%s\nlacks the recovery\n%s", got, tc.wantLog)
			}
		})
	}
}

// A transfer that inherits a stage from an abandoned one forgets it before
// its first window: stale frames are neither sent nor counted.
func TestStaleStageIsForgotten(t *testing.T) {
	env := newStageEnv(4, 8)
	for seq := uint32(90); seq < 93; seq++ {
		env.stage = append(env.stage, &wire.Packet{Type: wire.TypeData, Seq: seq})
	}
	cfg, err := Config{TransferID: 7, Bytes: 400, ChunkSize: 100, Payload: make([]byte, 400),
		Protocol: Blast, Strategy: GoBackN, Window: 2, RetransTimeout: 10 * time.Millisecond, MaxAttempts: 3}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sendBlast(env, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(env.log, " "); got != "0/0 1/0L 2/0 3/0L" || res.DataPackets != 4 || env.dropped != 3 {
		t.Errorf("wire %q, %d data packets, %d stale frames forgotten", got, res.DataPackets, env.dropped)
	}
}
