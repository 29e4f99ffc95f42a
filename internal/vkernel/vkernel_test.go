package vkernel

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/sim"
	"blastlan/internal/stats"
)

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fill(b []byte, seed int64) {
	rand.New(rand.NewSource(seed)).Read(b)
}

func TestRemoteMoveToDeliversBytes(t *testing.T) {
	c := newCluster(t, Options{})
	src := c.A.CreateProcess(64*1024, false)
	dst := c.B.CreateProcess(64*1024, true)
	fill(src.Bytes(), 1)

	res, err := c.MoveTo(src, 0, dst, 0, 64*1024, MoveOptions{
		Protocol: core.Blast, Strategy: core.GoBackN,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Error("destination space does not match source")
	}
	// Table 3 anchor: 64 KB blast MoveTo ≈ 173 ms on the V-kernel preset.
	if res.Elapsed < 172*time.Millisecond || res.Elapsed > 175*time.Millisecond {
		t.Errorf("MoveTo(64KB) = %v, want ≈ 173 ms (Table 3)", res.Elapsed)
	}
	if res.Local {
		t.Error("remote move misreported as local")
	}
}

func TestMoveToSubRange(t *testing.T) {
	c := newCluster(t, Options{})
	src := c.A.CreateProcess(8192, false)
	dst := c.B.CreateProcess(8192, true)
	fill(src.Bytes(), 2)

	if _, err := c.MoveTo(src, 1024, dst, 4096, 2048, MoveOptions{Protocol: core.Blast}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes()[4096:4096+2048], src.Bytes()[1024:1024+2048]) {
		t.Error("sub-range corrupted")
	}
	for _, b := range dst.Bytes()[:4096] {
		if b != 0 {
			t.Fatal("bytes outside target range modified")
		}
	}
}

func TestLocalMoveAvoidsNetwork(t *testing.T) {
	c := newCluster(t, Options{})
	src := c.A.CreateProcess(32*1024, false)
	dst := c.A.CreateProcess(32*1024, true)
	fill(src.Bytes(), 3)

	res, err := c.MoveTo(src, 0, dst, 0, 32*1024, MoveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local {
		t.Error("same-kernel move should be local")
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Error("local move corrupted data")
	}
	if c.A.Station.Counters.TxPackets != 0 {
		t.Error("local move used the network")
	}
	// One block move, no per-packet protocol overhead: far faster than the
	// remote path (≈ 40 ms vs 87 ms for 32 KB).
	remote := 32 * (c.Net.Cost.C() + c.Net.Cost.T())
	if res.Elapsed >= remote {
		t.Errorf("local move %v not faster than remote %v", res.Elapsed, remote)
	}
}

func TestMoveToUnderLossAllProtocols(t *testing.T) {
	for _, proto := range []core.Protocol{core.StopAndWait, core.SlidingWindow, core.Blast} {
		c := newCluster(t, Options{Loss: params.LossModel{PNet: 0.03}, Seed: 7})
		src := c.A.CreateProcess(16*1024, false)
		dst := c.B.CreateProcess(16*1024, true)
		fill(src.Bytes(), 9)
		if _, err := c.MoveTo(src, 0, dst, 0, 16*1024, MoveOptions{
			Protocol: proto, Strategy: core.GoBackN, Tr: 50 * time.Millisecond,
		}); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !bytes.Equal(dst.Bytes(), src.Bytes()) {
			t.Fatalf("%v: corrupted", proto)
		}
	}
}

func TestAccessChecks(t *testing.T) {
	c := newCluster(t, Options{})
	src := c.A.CreateProcess(4096, false)
	roDst := c.B.CreateProcess(4096, false) // not writable

	if _, err := c.MoveTo(src, 0, roDst, 0, 4096, MoveOptions{}); !errors.Is(err, ErrAccess) {
		t.Errorf("write to read-only process: %v", err)
	}
	wDst := c.B.CreateProcess(4096, true)
	cases := []struct{ srcOff, dstOff, n int }{
		{0, 0, 5000},  // larger than both spaces
		{-1, 0, 100},  // negative source offset
		{0, -1, 100},  // negative destination offset
		{4000, 0, 97}, // source overrun
		{0, 4090, 7},  // destination overrun
		{0, 0, -5},    // negative length
	}
	for _, cse := range cases {
		if _, err := c.MoveTo(src, cse.srcOff, wDst, cse.dstOff, cse.n, MoveOptions{}); !errors.Is(err, ErrBounds) {
			t.Errorf("MoveTo(%+v) = %v, want ErrBounds", cse, err)
		}
	}
	if _, err := c.MoveTo(nil, 0, wDst, 0, 1, MoveOptions{}); !errors.Is(err, ErrNoProcess) {
		t.Errorf("nil process: %v", err)
	}
}

// Table 3's headline: the kernel-level blast is ≈2.2× faster than the
// kernel-level stop-and-wait for 64 KB.
func TestKernelBlastAdvantage(t *testing.T) {
	move := func(proto core.Protocol) time.Duration {
		c := newCluster(t, Options{})
		src := c.A.CreateProcess(64*1024, false)
		dst := c.B.CreateProcess(64*1024, true)
		res, err := c.MoveTo(src, 0, dst, 0, 64*1024, MoveOptions{Protocol: proto, Strategy: core.GoBackN})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	saw := move(core.StopAndWait)
	blast := move(core.Blast)
	ratio := float64(saw) / float64(blast)
	// Kernel overhead raises C and Ca relative to T and Ta, making blast
	// "even more advantageous than in the case of a standalone program"
	// (§2.2): expect ≈ 2.2×, vs ≈ 1.8× standalone.
	if ratio < 2.0 || ratio > 2.4 {
		t.Errorf("kernel SAW/blast ratio = %.2f, want ≈ 2.2", ratio)
	}
	if stats.RelErr(float64(saw), float64(64*5900*time.Microsecond)) > 0.01 {
		t.Errorf("kernel SAW(64KB) = %v, want ≈ 64·5.9 ms", saw)
	}
}

// Multiblast through the kernel API (§3.1.3: "for such very large sizes, we
// suggest the use of multiple blasts").
func TestMoveToMultiblast(t *testing.T) {
	c := newCluster(t, Options{})
	src := c.A.CreateProcess(256*1024, false)
	dst := c.B.CreateProcess(256*1024, true)
	fill(src.Bytes(), 5)
	res, err := c.MoveTo(src, 0, dst, 0, 256*1024, MoveOptions{
		Protocol: core.Blast, Strategy: core.GoBackN, Window: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Send.AcksReceived != 4 {
		t.Errorf("acks = %d, want 4", res.Send.AcksReceived)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Error("multiblast corrupted data")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{Loss: params.LossModel{PNet: 3}}); err == nil {
		t.Error("invalid loss model accepted")
	}
}

// A MoveTo across a hostile network (reordering, duplication, corruption,
// jitter) must still deliver the exact bytes: the paper's MoveTo contract is
// unconditional, and the adversary exercises every recovery path of the
// chosen strategy at kernel level.
func TestMoveToUnderAdversary(t *testing.T) {
	adv := params.Adversary{
		Loss:          params.LossModel{PNet: 0.01},
		ReorderProb:   0.05,
		ReorderDepth:  2,
		DuplicateProb: 0.04,
		CorruptProb:   0.03,
		JitterMax:     300 * time.Microsecond,
	}
	for _, s := range []core.Strategy{core.FullNoNak, core.GoBackN, core.Selective} {
		c := newCluster(t, Options{Adversary: adv, Seed: int64(s) + 5})
		src := c.A.CreateProcess(32*1024, false)
		dst := c.B.CreateProcess(32*1024, true)
		fill(src.Bytes(), int64(s))

		res, err := c.MoveTo(src, 0, dst, 0, 32*1024, MoveOptions{
			Protocol: core.Blast, Strategy: s,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !bytes.Equal(dst.Bytes(), src.Bytes()) {
			t.Errorf("%v: destination corrupted under adversary", s)
		}
		if res.Recv.Duplicates == 0 && res.Send.Retransmits == 0 && c.Net.Adv == (sim.AdvCounters{}) {
			t.Errorf("%v: adversary injected nothing; test is vacuous", s)
		}
	}
}
