package main

// The -udp mode: loopback throughput benchmarks for the real-UDP datapath.
// The classic suite compares the syscall-per-packet path (batch=1, the
// one-slot frame ring), the sendmmsg/recvmmsg batched path (batch=32) and
// the GSO tier — guarded by CI's perf-regression gate (cmd/benchgate). The
// striped sweep measures streams ∈ {1,2,4,8} × {fixed, aimd} pulls
// against the server, on a clean loopback and under a 1% seeded drop
// adversary — archived as BENCH_4.json and the EXPERIMENTS.md
// streams×policy table (-controller restricts the sweep to one rate-control
// policy). The gated udp_pull_aimd_loss1 case pins the AIMD policy's 16 MB
// striped pull under 1% loss against its ci/bench_floor.json floor.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/simrun"
	"blastlan/internal/store"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// udpPullCase is one loopback pull measurement.
type udpPullCase struct {
	name       string
	bytes      int
	batch      int // sendmmsg/recvmmsg ring size; 1 = single-syscall
	window     int
	tier       udplan.Tier // datapath tier cap (TierAuto: probe for the best)
	controller string      // rate-control policy the REQ asks the server for
	drop       float64     // seeded wire-loss probability on the client endpoint
}

// minTier combines a case's tier cap with the -tier flag: the stricter of
// the two wins, TierAuto caps nothing.
func minTier(a, b udplan.Tier) udplan.Tier {
	if a == udplan.TierAuto {
		return b
	}
	if b != udplan.TierAuto && b < a {
		return b
	}
	return a
}

const udpSocketBuf = 4 << 20 // sized so a full window survives skb truesize accounting

// runUDPPull executes one measured pull and returns the elapsed wall time
// plus the datapath tier the client actually engaged (a gso-capped case
// degrades to mmsg on kernels without UDP_SEGMENT; the snapshot records
// which tier the number belongs to).
func runUDPPull(c udpPullCase) (time.Duration, udplan.Tier, error) {
	addr, stop, err := startServer(c.batch, func(s *udplan.Server) {
		s.MaxTier = c.tier
		s.Source = core.SeededReqSource
	})
	if err != nil {
		return 0, 0, err
	}
	defer stop()

	e, err := udplan.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer e.Close()
	e.SetSocketBuffers(udpSocketBuf)
	e.MaxTier = c.tier
	e.SetBatch(c.batch)
	engaged := e.Tier()
	if c.drop > 0 {
		if err := e.SetAdversary(params.Adversary{Loss: params.LossModel{PNet: c.drop}}, 1); err != nil {
			return 0, engaged, err
		}
	}
	cfg := core.Config{
		TransferID:     1,
		Bytes:          c.bytes,
		ChunkSize:      1000,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Window:         c.window,
		Controller:     c.controller,
		RetransTimeout: 250 * time.Millisecond,
		MaxAttempts:    10000,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   10 * time.Second,
		Sink:           func(int, []byte) {}, // stream: checksum and discard
	}
	t0 := time.Now()
	res, err := udplan.Pull(e, cfg)
	elapsed := time.Since(t0)
	if err != nil {
		return elapsed, engaged, err
	}
	if res.Bytes != c.bytes {
		return elapsed, engaged, fmt.Errorf("pull delivered %d of %d bytes", res.Bytes, c.bytes)
	}
	return elapsed, engaged, nil
}

// startServer serves on a fresh loopback socket — its buffers sized so a
// whole blast window survives skb truesize accounting (see
// udplan.SetConnBuffers), a session cap of 2 — at the given batch size,
// with the handlers and limits setup installs. stop closes the socket.
func startServer(batch int, setup func(*udplan.Server)) (addr string, stop func(), err error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	udplan.SetConnBuffers(conn, udpSocketBuf)
	srv := udplan.NewServer(conn)
	srv.Concurrency = 2
	srv.Batch = batch
	setup(srv)
	go srv.Run()
	return conn.LocalAddr().String(), func() { conn.Close() }, nil
}

// udpPushCase is one loopback push measurement: the direction cli_put and
// blastcp -push exercise — client Endpoint TX into the server's demux ring
// and session inboxes — which no pull case touches.
type udpPushCase struct {
	name   string
	bytes  int
	window int // 0: derived from the granted receive buffer, as blastcp -push does
}

// runUDPPush executes one measured push and returns the elapsed wall time,
// the tier the client engaged and how many data packets it retransmitted. A
// clean loopback push inside the receiver's buffering retransmits nothing;
// anything else means datagrams were dropped (a full session inbox, a full
// socket buffer) and is what the bench gate fails the row on.
func runUDPPush(c udpPushCase, tier udplan.Tier) (time.Duration, udplan.Tier, int, error) {
	received := make(chan core.RecvResult, 1) // one push per server
	addr, stop, err := startServer(32, func(s *udplan.Server) {
		s.MaxTier = tier
		s.SinkStream = func(wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
			return func(int, []byte) {}, func(res core.RecvResult) { received <- res }, true
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer stop()

	e, err := udplan.Dial(addr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer e.Close()
	e.SetSocketBuffers(udpSocketBuf)
	e.MaxTier = tier
	e.SetBatch(32)
	engaged := e.Tier()
	const chunk = 1000
	window := c.window
	if window == 0 {
		window = max(1, e.ReadBuffer()/4/chunk)
	}
	cfg := core.Config{
		TransferID:     1,
		Bytes:          c.bytes,
		ChunkSize:      chunk,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Window:         window,
		RetransTimeout: 250 * time.Millisecond,
		MaxAttempts:    10000,
		Linger:         50 * time.Millisecond,
		Source:         core.SeededSource(int64(c.bytes), c.bytes, chunk),
	}
	t0 := time.Now()
	res, err := udplan.Push(e, cfg)
	elapsed := time.Since(t0)
	if err != nil {
		return elapsed, engaged, res.Retransmits, err
	}
	select {
	case got := <-received:
		if !got.Completed || got.Bytes != c.bytes {
			return elapsed, engaged, res.Retransmits, fmt.Errorf("push delivered %d of %d bytes", got.Bytes, c.bytes)
		}
	case <-time.After(5 * time.Second):
		return elapsed, engaged, res.Retransmits, fmt.Errorf("server never completed the push")
	}
	return elapsed, engaged, res.Retransmits, nil
}

// filePullCase is one named pull from a real on-disk file through the
// disk-backed store (internal/store): stat by name, then pull through the
// extent cache with pipelined read-ahead. cold measures the first pull
// against a fresh store; hot warms the cache with one pull and measures the
// second — the figure the bench floor gates, since a warm hot set must cost
// near what the in-memory generator path costs; evict measures a cold pull
// after a filler file larger than the cache has been read through it, so
// every extent the pull reads evicts another — the regime a daemon serving
// more than -cache-mb lives in, and the one whose cost must not depend on
// how much is cached.
type filePullCase struct {
	name  string
	bytes int
	hot   bool
	evict bool
}

// runFilePull executes one file-backed pull case: a fresh store over a
// fresh temp directory per call, so cold reps really are cold as far as the
// store is concerned (the OS page cache stays warm across reps — the store
// cache, not the platter, is what this measures). The stat handshake runs
// before the timer starts, mirroring the generator cases, which have no
// stat either.
func runFilePull(c filePullCase, tier udplan.Tier) (time.Duration, udplan.Tier, error) {
	dir, err := os.MkdirTemp("", "lanbench-store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	const object = "bench.bin"
	payload := core.SeededPayload(int64(c.bytes), c.bytes, 1000)
	if err := os.WriteFile(filepath.Join(dir, object), payload, 0o644); err != nil {
		return 0, 0, err
	}

	st := store.Open(dir, store.Options{})
	defer st.Close()
	addr, stop, err := startServer(32, func(s *udplan.Server) {
		s.MaxTier = tier
		s.SourceEnv = st.SourceReq
		s.Stat = st.StatReq
	})
	if err != nil {
		return 0, 0, err
	}
	defer stop()

	pull := func() (time.Duration, udplan.Tier, error) {
		e, err := udplan.Dial(addr)
		if err != nil {
			return 0, 0, err
		}
		defer e.Close()
		e.SetSocketBuffers(udpSocketBuf)
		e.MaxTier = tier
		e.SetBatch(32)
		engaged := e.Tier()
		cfg := core.Config{
			TransferID:     1,
			ChunkSize:      1000,
			Protocol:       core.Blast,
			Strategy:       core.GoBackN,
			Window:         128,
			RetransTimeout: 250 * time.Millisecond,
			MaxAttempts:    10000,
			Linger:         50 * time.Millisecond,
			ReceiverIdle:   10 * time.Second,
			Sink:           func(int, []byte) {}, // stream: checksum and discard
		}
		size, err := core.Stat(e, cfg, object)
		if err != nil {
			return 0, engaged, fmt.Errorf("stat: %w", err)
		}
		cfg.Name, cfg.Bytes = object, int(size)
		t0 := time.Now()
		res, err := udplan.Pull(e, cfg)
		elapsed := time.Since(t0)
		if err != nil {
			return elapsed, engaged, err
		}
		if res.Bytes != c.bytes {
			return elapsed, engaged, fmt.Errorf("file pull delivered %d of %d bytes", res.Bytes, c.bytes)
		}
		return elapsed, engaged, nil
	}
	if c.hot {
		if _, _, err := pull(); err != nil {
			return 0, 0, fmt.Errorf("warming pull: %w", err)
		}
	}
	if c.evict {
		// A sparse filler the size of the default cache plus one extent,
		// read at the pulls' chunk size: the ring is full when the timer
		// starts.
		const filler = "filler.bin"
		f, err := os.Create(filepath.Join(dir, filler))
		if err != nil {
			return 0, 0, err
		}
		err = f.Truncate(256<<20 + store.ExtentBytes)
		f.Close()
		if err != nil {
			return 0, 0, err
		}
		src, err := st.Source(filler, 1000, 0, nil)
		if err != nil {
			return 0, 0, err
		}
		for seq, buf := 0, make([]byte, 1000); len(src(seq, buf)) > 0; seq++ {
		}
		if st.Stats().Evictions == 0 {
			return 0, 0, fmt.Errorf("filler did not fill the store cache")
		}
	}
	return pull()
}

// runFanoutBench measures one-to-many distribution: a single source daemon
// serving the seeded object, fanned out to 8 receivers either through the
// depth-2 stripe-relay tree (relays=4: the source transmits each stripe
// once, cut-through relay boards serve the children while still receiving)
// or as 8 independent whole-object pulls (relays=0: the source pays 8×).
// Returns the fan-out's makespan; aggregate MB/s is 8×object over it.
func runFanoutBench(objBytes, relays, lineRate int) (time.Duration, error) {
	res, err := simrun.FanoutScenario{
		N:      8,
		Relays: relays,
		Bytes:  objBytes,
		Chunk:  1000,
		Window: 128,
		Tr:     250 * time.Millisecond,
	}.RunUDP(simrun.UDP{Batch: 32, SocketBuf: udpSocketBuf, LineRate: lineRate})
	if err != nil {
		return res.Makespan, err
	}
	if res.Completed != 8 {
		for _, r := range res.Receivers {
			if r.Err != "" {
				return res.Makespan, fmt.Errorf("fanout receiver %d: %s", r.Receiver, r.Err)
			}
		}
		return res.Makespan, fmt.Errorf("fanout completed %d of 8 receivers", res.Completed)
	}
	return res.Makespan, nil
}

// stripedCase is one streams×policy×network loopback measurement.
type stripedCase struct {
	name       string
	bytes      int
	streams    int
	controller string  // rate-control policy ("": fixed window)
	drop       float64 // seeded per-stripe drop probability (0: clean)
}

// runStripedPull executes one striped pull against a sharded batched server
// and returns the elapsed wall time.
func runStripedPull(c stripedCase) (time.Duration, error) {
	addr, stop, err := startServer(32, func(s *udplan.Server) {
		s.Concurrency = c.streams + 1
		s.Source = core.SeededReqSource
	})
	if err != nil {
		return 0, err
	}
	defer stop()

	cfg := core.Config{
		TransferID:     1,
		Bytes:          c.bytes,
		ChunkSize:      1000,
		Protocol:       core.Blast,
		Strategy:       core.Selective,
		Window:         256,
		Controller:     c.controller,
		RetransTimeout: 250 * time.Millisecond,
		MaxAttempts:    10000,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   10 * time.Second,
	}
	opts := udplan.StripeOptions{
		Streams:   c.streams,
		Batch:     64,
		SocketBuf: 8 << 20,
	}
	if c.drop > 0 {
		opts.Adversary = params.Adversary{Loss: params.LossModel{PNet: c.drop}}
		opts.AdversarySeed = 1
	}
	t0 := time.Now()
	res, err := udplan.PullStriped(addr, cfg, opts)
	elapsed := time.Since(t0)
	if err != nil {
		return elapsed, err
	}
	if res.Bytes != c.bytes {
		return elapsed, fmt.Errorf("striped pull delivered %d of %d bytes", res.Bytes, c.bytes)
	}
	return elapsed, nil
}

// measurePull runs one named pull case reps times and records the best
// (minimum) elapsed time: wall-clock loopback runs jitter with scheduler
// noise, and the minimum is the repeatable hardware-bound figure. The fewest
// heap allocations any rep made — set-up, both ends, everything the process
// did meanwhile — ride along as allocs_per_op, and the fewest bytes allocated
// (MemStats.TotalAlloc) as alloc_bytes_per_op: counts, which do not drift
// with the host. The row is printed and appended to the snapshot.
func measurePull(snap *benchSnapshot, name string, bytes, reps int, run func() (time.Duration, string, error)) error {
	best := time.Duration(0)
	allocs, alloced := ^uint64(0), ^uint64(0)
	tier := ""
	var ms runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&ms)
		mallocs, total := ms.Mallocs, ms.TotalAlloc
		el, tr, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		runtime.ReadMemStats(&ms)
		allocs, alloced = min(allocs, ms.Mallocs-mallocs), min(alloced, ms.TotalAlloc-total)
		tier = tr
		if best == 0 || el < best {
			best = el
		}
	}
	mbps := float64(bytes) / best.Seconds() / 1e6
	label := name
	if tier != "" {
		label = fmt.Sprintf("%s [%s]", name, tier)
	}
	fmt.Printf("%-32s %10.1f %12v\n", label, mbps, best.Round(time.Millisecond))
	snap.Benchmarks = append(snap.Benchmarks, benchEntry{
		Name:            name,
		NsPerOp:         float64(best.Nanoseconds()),
		AllocsPerOp:     int64(allocs),
		AllocBytesPerOp: int64(alloced),
		BytesPerOp:      int64(bytes),
		MBps:            mbps,
		Tier:            tier,
	})
	return nil
}

// runUDPBench runs the loopback suites and writes BENCH-style JSON to path
// (when non-empty), printing a human-readable table either way. streams > 0
// restricts the striped sweep to that stream count and skips the classic
// cases; controller restricts it to that rate-control policy.
func runUDPBench(path string, quick bool, streams int, controller string, tierName string) error {
	tierCap, err := udplan.ParseTier(tierName)
	if err != nil {
		return err
	}
	sizes := []int{1 << 20, 16 << 20, 64 << 20}
	if quick {
		sizes = []int{1 << 20, 4 << 20}
	}
	snap := benchSnapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	fmt.Printf("%-32s %10s %12s\n", "case", "MB/s", "elapsed")
	if streams == 0 {
		for _, size := range sizes {
			mb := size >> 20
			// batch32 stays pinned at the sendmmsg tier it has always
			// measured (so its floors keep meaning across kernels); _gso is
			// the segmentation-offload tier, degrading to mmsg where
			// UDP_SEGMENT is unsupported — the snapshot's tier column says
			// which actually ran.
			cases := []udpPullCase{
				{name: fmt.Sprintf("udp_pull_%dmb_batch1", mb), bytes: size, batch: 1, window: 128, tier: udplan.TierAuto},
				{name: fmt.Sprintf("udp_pull_%dmb_batch32", mb), bytes: size, batch: 32, window: 128, tier: udplan.TierMmsg},
				{name: fmt.Sprintf("udp_pull_%dmb_gso", mb), bytes: size, batch: 32, window: 128, tier: udplan.TierGSO},
			}
			for _, c := range cases {
				c := c
				c.tier = minTier(c.tier, tierCap)
				if err := measurePull(&snap, c.name, c.bytes, 3,
					func() (time.Duration, string, error) {
						el, tr, err := runUDPPull(c)
						return el, tr.String(), err
					}); err != nil {
					return err
				}
			}
			// The disk-backed store cases at the same size and tier as _gso,
			// so cold-vs-hot and store-vs-generator read off one table.
			for _, fc := range []filePullCase{
				{name: fmt.Sprintf("udp_pull_file_cold_%dmb", mb), bytes: size},
				{name: fmt.Sprintf("udp_pull_file_hot_%dmb", mb), bytes: size, hot: true},
				{name: fmt.Sprintf("udp_pull_file_evict_%dmb", mb), bytes: size, evict: true},
			} {
				fc := fc
				if err := measurePull(&snap, fc.name, fc.bytes, 3,
					func() (time.Duration, string, error) {
						el, tr, err := runFilePull(fc, minTier(udplan.TierGSO, tierCap))
						return el, tr.String(), err
					}); err != nil {
					return err
				}
			}
		}
	}

	if streams == 0 {
		// The push direction (PR 16): an 8 MB push at the window cli_put
		// uses and a 64 MB push at the window blastcp derives when -window is
		// left at 0. Full size even in -quick — the floors need a stable
		// figure — and the retransmit count rides in the snapshot: the worst
		// of the reps, which cmd/benchgate requires to be zero.
		for _, pc := range []udpPushCase{
			{name: "udp_push_8mb_w128", bytes: 8 << 20, window: 128},
			{name: "udp_push_64mb_default", bytes: 64 << 20},
		} {
			pc := pc
			retx := 0
			if err := measurePull(&snap, pc.name, pc.bytes, 3,
				func() (time.Duration, string, error) {
					el, tr, n, err := runUDPPush(pc, tierCap)
					retx = max(retx, n)
					return el, tr.String(), err
				}); err != nil {
				return err
			}
			snap.Benchmarks[len(snap.Benchmarks)-1].Retransmits = int64(retx)
		}
	}

	if streams == 0 {
		// The failure-recovery cases, each one simrun.FaultScenario
		// over the batched datapath. udp_pull_resume: a 64 MB pull whose
		// server crashes at the halfway chunk and rebinds after 10 ms,
		// recovered through core.PullResume's frontier offset REQ — crash
		// detection, downtime and resume round trip included; the floor is
		// 70% of the uninterrupted gso floor. A small Tr keeps detection
		// proportionate on loopback. udp_busy_backoff: the makespan of 8
		// clients against a 2-session cap with a 10 ms RETRY-AFTER hint,
		// failing if any client errors or nobody was ever refused.
		udpRun := simrun.UDP{Batch: 32, SocketBuf: udpSocketBuf}
		const resumeBytes = 64 << 20
		if err := measurePull(&snap, "udp_pull_resume", resumeBytes, 3,
			func() (time.Duration, string, error) {
				res, err := simrun.FaultScenario{
					N: 1, Bytes: []int{resumeBytes}, Chunk: 1000, Window: 128, Tr: 20 * time.Millisecond,
					Concurrency: 2,
					Faults:      params.Faults{CrashAfterChunks: []int64{resumeBytes / 1000 / 2}, Downtime: 10 * time.Millisecond},
					MaxResumes:  16, Backoff: 5 * time.Millisecond, Seed: 1,
				}.RunUDP(udpRun)
				switch {
				case err != nil:
					return 0, "", err
				case res.Completed != 1:
					err = fmt.Errorf("resumed pull incomplete: %s", res.Clients[0].Err)
				case res.Sessions < 2:
					err = fmt.Errorf("server never crashed (%d sessions)", res.Sessions)
				}
				return res.Clients[0].Elapsed, "", err
			}); err != nil {
			return err
		}
		busyBytes, busyClients := 4<<20, 8
		if quick {
			busyBytes = 2 << 20
		}
		if err := measurePull(&snap, "udp_busy_backoff", busyBytes*busyClients, 3,
			func() (time.Duration, string, error) {
				res, err := simrun.FaultScenario{
					N: busyClients, Bytes: []int{busyBytes}, Chunk: 1000, Window: 128, Tr: 20 * time.Millisecond,
					Concurrency: 2, RetryAfter: 10 * time.Millisecond,
					MaxBusyWaits: 1 << 20, Backoff: 5 * time.Millisecond,
				}.RunUDP(udpRun)
				switch {
				case err != nil:
				case res.Completed != busyClients:
					err = fmt.Errorf("%d of %d clients completed", res.Completed, busyClients)
				case res.BusyWaits == 0:
					err = fmt.Errorf("%d clients against a 2-session cap were never refused", busyClients)
				}
				return res.Makespan, "", err
			}); err != nil {
			return err
		}

		// The one-to-many fan-out cases (PR 10): 8 receivers of one object,
		// as the depth-2 stripe-relay tree (4 relays, cut-through boards —
		// the source transmits the object ~once and its socket carries 1
		// stream's load, each relay's 2) vs 8 independent pulls (the source
		// socket serialises all 8 streams). MB/s is aggregate delivered
		// payload (8 × object) over the fan-out makespan; the floor gates the
		// tree, and the PR's acceptance ratio (tree ≥ 3× independent) reads
		// straight off the two rows.
		// The headline pair models every socket as a 62.5 MB/s (500 Mb/s)
		// serializing link (Server.LineRate): loopback has no NIC, so
		// without the modeled line a topology comparison on a small host
		// degenerates into a CPU benchmark in which the tree's extra hop
		// can only lose. With it, the economics under test are real ones —
		// whose socket carries how many copies — and the line (well under
		// loopback's CPU ceiling) is the binding constraint. The unpaced
		// pair is kept for transparency: it reports the raw-CPU regime,
		// where on a single-core host the tree's 2× per-byte work ties or
		// loses.
		fanBytes, fanLine := 8<<20, 62_500_000
		if quick {
			fanBytes = 4 << 20
		}
		for _, fc := range []struct {
			name   string
			relays int
			line   int
		}{
			{"udp_fanout_8", 4, fanLine},
			{"udp_fanout_8_independent", 0, fanLine},
			{"udp_fanout_8_unpaced", 4, 0},
			{"udp_fanout_8_unpaced_independent", 0, 0},
		} {
			fc := fc
			if err := measurePull(&snap, fc.name, 8*fanBytes, 3,
				func() (time.Duration, string, error) {
					el, err := runFanoutBench(fanBytes, fc.relays, fc.line)
					return el, "", err
				}); err != nil {
				return err
			}
		}
	}

	// The striped streams×policy sweep, clean and under 1% seeded drop.
	cleanSize, lossySize := 64<<20, 16<<20
	if quick {
		cleanSize, lossySize = 8<<20, 2<<20
	}
	streamCounts := []int{1, 2, 4, 8}
	if streams > 0 {
		streamCounts = []int{streams}
	}
	modes := []string{"", core.ControllerAIMD}
	if controller != "" {
		modes = []string{controller}
	}
	for _, nets := range []struct {
		suffix string
		size   int
		drop   float64
		reps   int
	}{
		{"", cleanSize, 0, 5},
		{"_drop1", lossySize, 0.01, 3},
	} {
		for _, s := range streamCounts {
			for _, policy := range modes {
				mode := ""
				if policy != "" {
					mode = "_" + policy
				}
				c := stripedCase{
					name:       fmt.Sprintf("udp_stream%d%s_%dmb%s", s, mode, nets.size>>20, nets.suffix),
					bytes:      nets.size,
					streams:    s,
					controller: policy,
					drop:       nets.drop,
				}
				if err := measurePull(&snap, c.name, c.bytes, nets.reps,
					func() (time.Duration, string, error) {
						el, err := runStripedPull(c)
						return el, "", err
					}); err != nil {
					return err
				}
			}
		}
	}

	// The gated controller-under-loss case: the 321 MB/s configuration of
	// BENCH_4.json's adaptive-under-loss row (streams=4, selective repeat,
	// 16 MB, 1% seeded drop on every stripe endpoint) driven by aimd, which
	// holds its window through stray drops because a sparse repair holds
	// rather than cuts. ci/bench_floor.json floors it, so a policy
	// regression that collapses under loss fails the bench gate. Runs at
	// full size even in -quick: the floor needs a stable figure.
	if streams == 0 && controller == "" {
		c := stripedCase{
			name:       "udp_pull_aimd_loss1",
			bytes:      16 << 20,
			streams:    4,
			controller: core.ControllerAIMD,
			drop:       0.01,
		}
		if err := measurePull(&snap, c.name, c.bytes, 3,
			func() (time.Duration, string, error) {
				el, err := runStripedPull(c)
				return el, "", err
			}); err != nil {
			return err
		}
	}

	if streams > 0 {
		if path == "" {
			return nil
		}
		return writeSnapshot(snap, path)
	}

	// The many-client loadN sweep: a sharded *simulated* server (the shared
	// session layer under deterministic load) rides in the same gated
	// snapshot, so ci/bench_floor.json guards the scale axis too.
	if err := appendLoadRows(&snap, quick); err != nil {
		return err
	}

	// Steady-state send-loop allocation check: the exact per-packet work of
	// a blast window body — fill the reused packet from the streaming
	// source, encode into the frame ring, flush every batch — against a
	// blackhole socket. Must be 0 allocs/op.
	for _, batch := range []int{1, 32} {
		r := testing.Benchmark(func(b *testing.B) { steadySendLoop(b, batch) })
		name := fmt.Sprintf("udp_send_steady_batch%d", batch)
		fmt.Printf("%-28s %10s %12v  %d allocs/op\n", name, "-",
			(time.Duration(r.NsPerOp())).Round(time.Nanosecond), r.AllocsPerOp())
		snap.Benchmarks = append(snap.Benchmarks, benchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	if path == "" {
		return nil
	}
	return writeSnapshot(snap, path)
}

// steadySendLoop benchmarks one data packet through the batched send path:
// source-generated payload, reused packet value, EncodeInto the frame ring,
// sendmmsg flush amortised over the batch.
func steadySendLoop(b *testing.B, batch int) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0") // never read: blackhole
	if err != nil {
		b.Skip(err)
	}
	defer sink.Close()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Skip(err)
	}
	defer conn.Close()
	e := udplan.NewEndpoint(conn, sink.LocalAddr())
	e.SetBatch(batch)

	const chunk = 1000
	n := 1 << 20 / chunk
	src := core.SeededSource(1, n*chunk, chunk)
	scratch := make([]byte, chunk)
	pkt := &wire.Packet{Type: wire.TypeData, Trans: 1, Total: uint32(n)}
	b.ReportAllocs()
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := i % n
		pkt.Seq = uint32(seq)
		pkt.Payload = src(seq, scratch)
		if err := e.Send(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.FlushBatch()
}
