package udplan

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// stripedSource resolves a (possibly striped) pull request against the
// deterministic seeded stream — the same resolution blastd performs: the
// generator covers the whole logical stream (seeded by its length), and the
// stripe's REQ selects a chunk-aligned view into it.
func stripedSource(r wire.Req) (core.ChunkSource, bool) {
	if r.Bytes == 0 || r.Chunk == 0 {
		return nil, false
	}
	stream := int(r.StreamBytes())
	src := core.SeededSource(int64(stream), stream, int(r.Chunk))
	return core.OffsetSource(src, int(r.OffsetChunks)), true
}

// stripedLoopbackServer starts a sharded batched server resolving striped
// seeded pulls.
func stripedLoopbackServer(t *testing.T, concurrency int) string {
	t.Helper()
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = concurrency
	srv.Batch = 8
	srv.Source = stripedSource
	go srv.Run()
	return addr
}

// logicalCfg is the transfer contract for a striped-pull test.
func logicalCfg(total int) core.Config {
	return core.Config{
		TransferID:     100,
		Bytes:          total,
		ChunkSize:      1000,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Window:         64,
		RetransTimeout: 150 * time.Millisecond,
		MaxAttempts:    200,
		Linger:         100 * time.Millisecond,
		ReceiverIdle:   5 * time.Second,
	}
}

// A striped pull must reassemble byte-identically to the unstriped stream
// and to a streams=1 pull of the same contract.
func TestStripedPullReassembles(t *testing.T) {
	const total = 2 << 20
	addr := stripedLoopbackServer(t, 8)
	want := core.SeededPayload(int64(total), total, 1000)

	pull := func(streams int) ([]byte, StripedResult) {
		out := make([]byte, total)
		res, err := PullStriped(addr, logicalCfg(total), StripeOptions{
			Streams: streams,
			Batch:   8,
			Sink:    func(off int, b []byte) { copy(out[off:], b) },
		})
		if err != nil {
			t.Fatalf("streams=%d: %v", streams, err)
		}
		return out, res
	}

	got4, res4 := pull(4)
	if len(res4.Stripes) != 4 {
		t.Fatalf("stripes = %d, want 4", len(res4.Stripes))
	}
	if !bytes.Equal(got4, want) {
		t.Fatal("streams=4 payload differs from the logical stream")
	}
	got1, res1 := pull(1)
	if !bytes.Equal(got1, got4) {
		t.Fatal("streams=1 and streams=4 reassemble differently")
	}
	wantSum := core.TransferChecksum(want)
	if res4.Checksum != wantSum || res1.Checksum != wantSum {
		t.Errorf("checksums %04x/%04x, want %04x", res4.Checksum, res1.Checksum, wantSum)
	}
	if res4.Bytes != total || res1.Bytes != total {
		t.Errorf("bytes %d/%d, want %d", res4.Bytes, res1.Bytes, total)
	}
	// Per-stripe feeds are populated and cover the plan.
	covered := 0
	for _, s := range res4.Stripes {
		if !s.Recv.Completed {
			t.Errorf("stripe %d incomplete", s.Stripe.Index)
		}
		covered += s.Recv.Bytes
	}
	if covered != total {
		t.Errorf("stripe byte feeds cover %d of %d", covered, total)
	}
}

// Striping must survive a hostile network: every stripe endpoint gets its
// own seeded drop/reorder/dup adversary and the reassembled stream is still
// byte-identical.
func TestStripedPullUnderAdversary(t *testing.T) {
	const total = 512 << 10
	addr := stripedLoopbackServer(t, 8)
	want := core.SeededPayload(int64(total), total, 1000)
	out := make([]byte, total)
	cfg := logicalCfg(total)
	cfg.Window = 32
	res, err := PullStriped(addr, cfg, StripeOptions{
		Streams: 4,
		Batch:   8,
		Sink:    func(off int, b []byte) { copy(out[off:], b) },
		Adversary: params.Adversary{
			Loss:          params.LossModel{PNet: 0.01},
			ReorderProb:   0.01,
			DuplicateProb: 0.01,
		},
		AdversarySeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("adversarial striped pull corrupted the stream")
	}
	if res.Checksum != core.TransferChecksum(want) {
		t.Errorf("checksum %04x", res.Checksum)
	}
}

// Adaptive striped pull: the REQ's policy byte makes the serving side run
// the AIMD controller; the transfer must still reassemble byte-identically,
// with loss on every stripe.
func TestStripedPullAdaptive(t *testing.T) {
	const total = 1 << 20
	addr := stripedLoopbackServer(t, 8)
	want := core.SeededPayload(int64(total), total, 1000)
	out := make([]byte, total)
	cfg := logicalCfg(total)
	cfg.Controller = core.ControllerAIMD
	res, err := PullStriped(addr, cfg, StripeOptions{
		Streams:       4,
		Batch:         8,
		Sink:          func(off int, b []byte) { copy(out[off:], b) },
		Adversary:     params.Adversary{Loss: params.LossModel{PNet: 0.01}},
		AdversarySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("adaptive striped pull corrupted the stream")
	}
	if res.Bytes != total {
		t.Errorf("bytes %d", res.Bytes)
	}
}

// A client process remembers, per server host, the round trip its pulls'
// REQs learned: an aimd striped pull leaves its stripes' SRTT in the table,
// and the next pull from that host re-asks a lost REQ at about that round
// trip (the 1 ms floor on loopback), not after Tr.
func TestPullRemembersPathRTT(t *testing.T) {
	const tr = 200 * time.Millisecond
	addr := stripedLoopbackServer(t, 8)
	host, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	clientPaths.Put(host, 0) // forget what earlier tests' pulls learned here
	cfg := logicalCfg(64 << 10)
	cfg.Controller, cfg.RetransTimeout = core.ControllerAIMD, tr
	first, err := PullStriped(addr, cfg, StripeOptions{Streams: 2, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	var learned time.Duration
	for _, s := range first.Stripes {
		if s.Recv.SRTT > 0 {
			learned = s.Recv.SRTT
		}
	}
	if got := clientPaths.Get(host); learned == 0 || got != learned {
		t.Fatalf("the table holds %v for %v after a pull that learned %v, want that", got, host, learned)
	}
	cfg.TransferID += 2
	lostREQ := func(stripe int) func(*wire.Packet) params.Mangle {
		dropped := stripe > 0
		return func(p *wire.Packet) params.Mangle {
			if !dropped && p.Type == wire.TypeReq {
				dropped = true
				return params.Mangle{Drop: true}
			}
			return params.Mangle{}
		}
	}
	second, err := PullStriped(addr, cfg, StripeOptions{Streams: 2, Batch: 8, MangleTx: lostREQ})
	if err != nil {
		t.Fatal(err)
	}
	if reqs := second.Stripes[0].Recv.Reqs; reqs != 2 {
		t.Fatalf("stripe 0 sent %d REQs, want 2", reqs)
	}
	if second.Elapsed >= tr/4 {
		t.Errorf("a pull that lost a REQ took %v from a learned round trip of %v, want under Tr/4 = %v", second.Elapsed, learned, tr/4)
	}
}

// policyOverUDP runs a 256 KiB go-back-n transfer in 32-packet windows under
// policy over a real endpoint pair, dropping a handful of identified first
// transmissions (NAK-driven recovery, deterministic on any substrate), and
// returns the policy's stats once the payload has arrived intact.
func policyOverUDP(t *testing.T, policy string, id uint32, seed int64) core.ControllerStats {
	t.Helper()
	ea, eb := pipe(t)
	ea.SetBatch(16)
	payload := randomPayload(256<<10, seed)
	cfg := loopCfg(id, payload, core.Blast, core.GoBackN)
	cfg.Controller = policy
	cfg.Window = 32
	ea.MangleTx = func(p *wire.Packet) params.Mangle {
		if p.Type == wire.TypeData && p.Attempt == 0 && p.Seq%50 == 3 && !p.IsLast() {
			return params.Mangle{Drop: true}
		}
		return params.Mangle{}
	}
	rcfg := cfg
	rcfg.Payload = nil
	type out struct {
		res core.RecvResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := core.RunReceiver(eb, rcfg)
		done <- out{r, err}
	}()
	res, err := core.RunSender(ea, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ro := <-done
	if ro.err != nil {
		t.Fatal(ro.err)
	}
	if !bytes.Equal(ro.res.Data, payload) {
		t.Fatalf("policy %s corrupted the transfer", policy)
	}
	if res.Controller == nil {
		t.Fatalf("policy %s reported no controller stats", policy)
	}
	return *res.Controller
}

// The adaptive sender over a real endpoint pair: the scripted drops must
// engage aimd (window cuts) without cutting below its floor.
func TestAdaptiveSenderControllerOverUDP(t *testing.T) {
	st := policyOverUDP(t, core.ControllerAIMD, 9, 5)
	if st.Windows == 0 || st.Cuts == 0 {
		t.Errorf("controller never engaged: %+v", st)
	}
	if st.FinalWindow < 16 {
		t.Errorf("final window %d below the window floor of 16", st.FinalWindow)
	}
}

// Every registered policy drives a transfer over real endpoints: scripted
// first-transmission drops, intact payload, the policy's own stats on the
// SendResult.
func TestControllerPoliciesOverUDP(t *testing.T) {
	for _, name := range core.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			st := policyOverUDP(t, name, 13, 11)
			if st.Policy != name {
				t.Errorf("stats policy %q, want %q", st.Policy, name)
			}
			if st.Windows == 0 {
				t.Errorf("policy %s never observed a window: %+v", name, st)
			}
		})
	}
}

// controlledFlushes runs one 1 MB selective transfer under policy from a
// client endpoint capped at tier and returns the frame count of
// every ring flush it made, or nil when the socket will not run tier. The
// receiver drops a fixed set of first transmissions, so windows go lossy and
// the sender still stages; Tr and the RTO floor sit far above any loopback
// response, so no timeout fires.
func controlledFlushes(t *testing.T, policy string, tier Tier, batch, window int) []int {
	t.Helper()
	ea, eb := pipe(t)
	ea.SetSocketBuffers(8 << 20)
	eb.SetSocketBuffers(8 << 20)
	ea.MaxTier = tier
	if err := ea.SetBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ea.Tier() != tier {
		return nil
	}
	flushes := []int{}
	inner := ea.ring.flush
	ea.ring.flush = func(frames [][]byte, lens []int, k int) error {
		flushes = append(flushes, k)
		return inner(frames, lens, k)
	}
	eb.MangleRx = func(p *wire.Packet) params.Mangle {
		if p.Type == wire.TypeData && p.Attempt == 0 && p.Seq%97 == 3 && !p.IsLast() {
			return params.Mangle{Drop: true}
		}
		return params.Mangle{}
	}
	payload := randomPayload(1<<20, 17)
	cfg := loopCfg(21, payload, core.Blast, core.Selective)
	cfg.Controller = policy
	cfg.Window = window
	cfg.RetransTimeout = 300 * time.Millisecond
	cfg.MinRTO = 300 * time.Millisecond
	rcfg := cfg
	rcfg.Payload = nil
	done := make(chan error, 1)
	go func() {
		_, err := core.RunReceiver(eb, rcfg)
		done <- err
	}()
	res, err := core.RunSender(ea, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res.Timeouts != 0 {
		t.Fatalf("%d timeouts: the flush sequence now depends on the clock", res.Timeouts)
	}
	return flushes
}

// A controller decides the window, never where a window's frames flush: the
// same transfer puts the same flush sequence through a GSO ring as through a
// sendmmsg ring, under every policy.
func TestControlledFlushesIgnoreTier(t *testing.T) {
	for _, policy := range core.ControllerNames() {
		for _, batch := range []int{16, 32} {
			for _, window := range []int{16, 32} {
				t.Run(fmt.Sprintf("%s/batch%d/window%d", policy, batch, window), func(t *testing.T) {
					gso := controlledFlushes(t, policy, TierGSO, batch, window)
					if gso == nil {
						t.Skip("the GSO tier is not available on this socket")
					}
					if len(gso) == 0 {
						t.Fatal("no flush to compare")
					}
					mmsg := controlledFlushes(t, policy, TierMmsg, batch, window)
					if !slices.Equal(mmsg, gso) {
						t.Errorf("flushes differ by tier: mmsg %d, gso %d\nmmsg %v\ngso  %v",
							len(mmsg), len(gso), mmsg, gso)
					}
				})
			}
		}
	}
}
