package core

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"blastlan/internal/wire"
)

// arrival is one packet reaching a receiver at a scripted time.
type arrival struct {
	at  time.Duration
	pkt *wire.Packet
}

// arrivalEnv is a clockwork Env for a receiver: packets arrive at scripted
// times whatever it answers, a Recv returns the next arrival due within its
// timeout (the clock moves to it) or expires after the whole timeout, and
// every reply is logged as "ACK 16 @40µs" or "NAK [14] @1.04ms".
type arrivalEnv struct {
	now     time.Duration
	arrive  []arrival
	replies []string
}

func (e *arrivalEnv) Now() time.Duration    { return e.now }
func (e *arrivalEnv) Compute(time.Duration) {}
func (e *arrivalEnv) Send(p *wire.Packet) error {
	if p.Type == wire.TypeNak {
		e.replies = append(e.replies, fmt.Sprintf("NAK %v @%v", nakMissing(p), e.now))
	} else {
		e.replies = append(e.replies, fmt.Sprintf("ACK %d @%v", p.Seq, e.now))
	}
	return nil
}
func (e *arrivalEnv) SendAsync(p *wire.Packet) error { return e.Send(p) }
func (e *arrivalEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if len(e.arrive) > 0 && (timeout < 0 || e.arrive[0].at <= e.now+timeout) {
		a := e.arrive[0]
		e.arrive = e.arrive[1:]
		e.now = max(e.now, a.at)
		return a.pkt, nil
	}
	e.now += timeout
	return nil, os.ErrDeadlineExceeded
}

// reorderPackets is the scripted transfer's size: three windows of eight.
const reorderPackets = 24

// dataAt is data packet seq of the scripted transfer arriving at µs
// microseconds, as transmission attempt (0: the first), carrying FlagLast
// when last.
func dataAt(us, seq, attempt int, last bool) []arrival {
	p := &wire.Packet{Type: wire.TypeData, Trans: 1, Seq: uint32(seq), Total: reorderPackets, Attempt: uint8(attempt)}
	if last {
		p.Flags = wire.FlagLast
	}
	return []arrival{{time.Duration(us) * time.Microsecond, p}}
}

// window is the first transmission of packets [base, base+8) arriving one a
// microsecond from us on, except those skipped; the FlagLast comes last.
func window(us, base int, skip ...int) []arrival {
	var out []arrival
	for seq := base; seq < base+8; seq++ {
		if !slices.Contains(skip, seq) {
			out = append(out, dataAt(us+seq-base, seq, 0, seq == base+7)...)
		}
	}
	return out
}

// learnReorder is a first window whose packet 6 the FlagLast overtook: the
// receiver NAKs it at once, then its first transmission arrives 2 µs late —
// the reorder window opens at the 1 ms floor — and the sender's repair is
// acknowledged.
func learnReorder() []arrival {
	return slices.Concat(window(0, 0, 6), dataAt(9, 6, 0, false), dataAt(20, 6, 1, true))
}

var learnedReplies = []string{"NAK [6] @7µs", "ACK 8 @20µs"}

// runReorder runs the scripted arrivals through the blast receiver under
// strategy and returns its replies.
func runReorder(t *testing.T, strategy Strategy, arrive ...[]arrival) []string {
	t.Helper()
	cfg, err := Config{
		TransferID: 1, Bytes: reorderPackets * 100, ChunkSize: 100, Protocol: Blast, Strategy: strategy,
		RetransTimeout: 10 * time.Millisecond, ReceiverIdle: 100 * time.Millisecond, Linger: time.Millisecond,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	env := &arrivalEnv{arrive: slices.Concat(arrive...)}
	res, err := recvBlast(env, cfg)
	if err != nil || !res.Completed {
		t.Fatalf("receiver: completed %v, %v", res.Completed, err)
	}
	return env.replies
}

func checkReplies(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replies %q, want %q", got, want)
	}
}

// Once the window is open, a gap that fills inside it is acknowledged the
// moment it fills, and a gap that does not is NAKed once the window has
// passed since its FlagLast — naming only the lost packet.
func TestReorderWindowStillNaksALoss(t *testing.T) {
	got := runReorder(t, Selective, learnReorder(),
		window(100, 8, 14), dataAt(400, 14, 0, false), // filled after 293 µs
		window(500, 16, 22), dataAt(3000, 22, 1, true)) // lost
	checkReplies(t, got, append(learnedReplies,
		"ACK 16 @400µs", "NAK [22] @1.507ms", "ACK 24 @3ms")...)
}

// A FlagLast that arrives while a verdict is held is the sender's retry:
// its timer ran out first, so the held verdict goes at once rather than
// being held again from the retry.
func TestDuplicateLastEndsTheHold(t *testing.T) {
	got := runReorder(t, Selective, learnReorder(),
		window(100, 8, 14), dataAt(400, 15, 1, true), dataAt(500, 14, 1, true),
		window(600, 16))
	checkReplies(t, got, append(learnedReplies,
		"NAK [14] @400µs", "ACK 16 @500µs", "ACK 24 @607µs")...)
}

// Only a first transmission of a NAKed packet opens the window: neither a
// duplicate the network made of a packet that was never NAKed nor the
// sender's retransmission of one that was. So the second window's reordered
// FlagLast is still NAKed at once.
func TestOnlyALateFirstTransmissionOpensTheWindow(t *testing.T) {
	got := runReorder(t, Selective,
		window(0, 0, 6), dataAt(8, 3, 0, false), dataAt(20, 6, 1, true),
		window(100, 8, 14), dataAt(110, 14, 0, false), dataAt(200, 14, 1, true),
		window(300, 16))
	checkReplies(t, got,
		"NAK [6] @7µs", "ACK 8 @20µs", "NAK [14] @107µs", "ACK 16 @200µs", "ACK 24 @307µs")
}

// FullNoNak never NAKs (§3.2.1), so it never holds either: a gapped
// FlagLast gets silence, the late packet that fills the gap gets none, and
// only the sender's whole-window retransmission earns the ACK.
func TestFullNoNakNeverHolds(t *testing.T) {
	resend := window(10_000, 0)
	for i := range resend {
		resend[i].pkt.Attempt = 1
	}
	got := runReorder(t, FullNoNak, window(0, 0, 6), dataAt(9, 6, 0, false), resend,
		window(20_000, 8), window(20_100, 16))
	checkReplies(t, got, "ACK 8 @10.007ms", "ACK 16 @20.007ms", "ACK 24 @20.107ms")
}
