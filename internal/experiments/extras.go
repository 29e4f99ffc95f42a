package experiments

import (
	"fmt"
	"net"
	"time"

	"blastlan/internal/analytic"
	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/simrun"
	"blastlan/internal/stats"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
	"blastlan/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "util",
		Title: "Network utilization of single- vs double-buffered blast",
		Paper: "§2.1.3: \"for the 64 kilobyte transfer … the network utilization is only 38 percent\"; double buffering improves elapsed time and utilization; a third buffer buys nothing",
		Run:   runUtil,
	})
	register(&Experiment{
		ID:    "ablation-dma",
		Title: "Copy-cost ablation: 3-Com host copies vs Excelan-style DMA vs modern hardware",
		Paper: "§2.1.3: DMA interfaces still copy — just with a slower on-board processor, so elapsed time is not improved; copy/wire ratio is the whole game, so on modern hardware the blast advantage collapses to the naive wire arithmetic",
		Run:   runAblationDMA,
	})
	register(&Experiment{
		ID:    "ablation-burst",
		Title: "Loss-model ablation: independent vs Gilbert–Elliott burst losses at equal average rate",
		Paper: "§1/§3: the analysis assumes independent losses and notes burst errors occasionally occur; bursts concentrate failures into fewer attempts — slightly lower mean, higher tail",
		Run:   runAblationBurst,
	})
	register(&Experiment{
		ID:    "multiblast",
		Title: "Multiblast: window sweep for a 1 MB remote file-system dump",
		Paper: "§3.1.3: as the transfer grows, errors get more likely and retransmission more costly; \"for such very large sizes, we suggest the use of multiple blasts\"",
		Run:   runMultiblast,
	})
	register(&Experiment{
		ID:    "udp-loopback",
		Title: "Real-socket measurement: 64 KB over UDP loopback, three protocols",
		Paper: "§2.1.1's measurement method on a live transport: absolute numbers reflect 2026 hardware, but blast ≤ sliding window ≤ stop-and-wait should hold because per-packet syscall round trips play the role of copies",
		Run:   runUDPLoopback,
	})
}

func runUtil(opt Options) (*Result, error) {
	m := params.Standalone3Com()
	md := params.DoubleBuffered(m)
	res := &Result{
		ID:     "util",
		Title:  "Blast network utilization and the double-buffering ablation",
		Paper:  "u(64) ≈ 38%",
		Header: []string{"N", "u single-buf", "B (ms)", "B dbl (ms)", "dbl speedup", "3-buf gain"},
	}
	ns := []int{1, 4, 16, 64, 256}
	res.Rows = make([][]string, len(ns))
	err := forEachPoint(opt.Workers, len(ns), func(i int) error {
		n := ns[i]
		b := analytic.TimeBlast(m, n)
		dbl := analytic.TimeBlastDouble(md, n)
		// A third buffer: simulate with TxBuffers=3 and compare.
		m3 := md
		m3.TxBuffers = 3
		cfg := table1Config(n*1024, core.BlastAsync)
		dbl2, err := one(cfg, simrun.Options{Cost: md})
		if err != nil {
			return err
		}
		tri, err := one(cfg, simrun.Options{Cost: m3})
		if err != nil {
			return err
		}
		gain := "none"
		if tri < dbl2 {
			gain = ms(dbl2 - tri)
		}
		res.Rows[i] = []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f%%", 100*analytic.Utilization(m, n)),
			ms(b), ms(dbl), ratio(b, dbl), gain,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"\"3-buf gain\" compares simulated double- vs triple-buffered interfaces: zero everywhere, confirming §2.1.3's claim that a third transmission buffer provides no further improvement while C and T are constant",
		"u(64) = 37.3% with exact wire times; the paper's quoted \"only 38 percent\" reflects its rounded constants")
	return res, nil
}

func runAblationDMA(opt Options) (*Result, error) {
	res := &Result{
		ID:     "ablation-dma",
		Title:  "64 KB blast under different copy engines",
		Paper:  "copy time dominates; DMA boards that copy with a slow on-board CPU make things worse, not better",
		Header: []string{"hardware", "C (ms)", "T (ms)", "C/T", "SAW (ms)", "B (ms)", "SAW/B", "B util"},
	}
	models := []params.CostModel{
		params.Standalone3Com(),
		params.ExcelanDMA(),
		params.VKernel(),
		params.ModernGigabit(),
	}
	res.Rows = make([][]string, len(models))
	err := forEachPoint(opt.Workers, len(models), func(i int) error {
		m := models[i]
		saw, err := one(table1Config(64*1024, core.StopAndWait), simrun.Options{Cost: m})
		if err != nil {
			return err
		}
		b, err := one(table1Config(64*1024, core.Blast), simrun.Options{Cost: m})
		if err != nil {
			return err
		}
		res.Rows[i] = []string{
			m.Name,
			ms(m.C()), ms(m.T()),
			fmt.Sprintf("%.2f", float64(m.C())/float64(m.T())),
			ms(saw), ms(b), ratio(saw, b),
			pct(analytic.Utilization(m, 64)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"the Excelan-style row models §2.1.3's observation that the board's 8088 copies ≈2.5× slower than the 68000 host: every protocol slows down and blast's relative advantage grows",
		"the modern row inverts the regime (C ≪ T): the SAW/B ratio collapses toward the naive ≤1.1× wire arithmetic of §2.1 — the paper's effect is a property of the copy/wire cost ratio, exactly as it argues")
	return res, nil
}

func runAblationBurst(opt Options) (*Result, error) {
	m := params.VKernel()
	meanLoss := 1e-2
	ge := &params.GilbertElliott{PGood: 0, PBad: 0.5, PGoodToBad: 0.2 * meanLoss / 0.5 / (1 - meanLoss/0.5), PBadToGood: 0.2}
	trials := 600
	if opt.Quick {
		trials = 60
	}
	cfg := core.Config{
		TransferID:     1,
		Bytes:          64 * 1024,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		RetransTimeout: analytic.TimeBlast(m, 64),
	}
	res := &Result{
		ID:     "ablation-burst",
		Title:  fmt.Sprintf("64 KB go-back-n blast, mean loss %.3g: independent vs burst (DES, %d trials)", meanLoss, trials),
		Paper:  "independence is a reasonable first-order approximation; bursts shift cost into the tail",
		Header: []string{"loss process", "mean (ms)", "σ (ms)", "max (ms)", "failures"},
	}
	bern, fail1, err := desSample(cfg, simrun.Options{Cost: m,
		Loss: params.LossModel{PNet: meanLoss}, Seed: opt.Seed}, trials, opt.Workers)
	if err != nil {
		return nil, err
	}
	burst, fail2, err := desSample(cfg, simrun.Options{Cost: m,
		Loss: params.LossModel{Burst: ge}, Seed: opt.Seed}, trials, opt.Workers)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{
		"independent (Bernoulli)", ms(bern.Mean()), ms(bern.StdDev()), ms(bern.Max()), fmt.Sprint(fail1)})
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("Gilbert–Elliott (mean burst %.0f pkts)", 1/ge.PBadToGood),
		ms(burst.Mean()), ms(burst.StdDev()), ms(burst.Max()), fmt.Sprint(fail2)})
	res.Notes = append(res.Notes,
		fmt.Sprintf("Gilbert–Elliott stationary mean loss %.4f vs Bernoulli %.4f", ge.MeanLoss(), meanLoss))
	return res, nil
}

func runMultiblast(opt Options) (*Result, error) {
	m := params.VKernel()
	dump := workload.FileDump()
	pn := 2e-3
	trials := 200
	if opt.Quick {
		trials = 20
	}
	res := &Result{
		ID:     "multiblast",
		Title:  fmt.Sprintf("1 MB dump (%d packets), pn=%.0e, go-back-n (DES, %d trials)", dump.Packets(), pn, trials),
		Paper:  "multiple blasts bound each retransmission's cost; the single giant blast pays the most per error",
		Header: []string{"window (pkts)", "error-free (ms)", "mean (ms)", "σ (ms)", "retransmitted pkts/run"},
	}
	windows := workload.MultiblastWindows()
	res.Rows = make([][]string, len(windows))
	err := forEachPoint(opt.Workers, len(windows), func(i int) error {
		w := windows[i]
		cfg := core.Config{
			TransferID:     1,
			Bytes:          dump.Bytes,
			Protocol:       core.Blast,
			Strategy:       core.GoBackN,
			Window:         w,
			RetransTimeout: analytic.TimeBlast(m, dump.Packets()) / 4,
		}
		clean, err := one(cfg, simrun.Options{Cost: m})
		if err != nil {
			return err
		}
		// The sampler already fans the per-point trials across workers;
		// points above it mostly parallelise the error-free baselines.
		st, err := simrun.SampleWorkers(cfg, simrun.Options{Cost: m,
			Loss: params.LossModel{PNet: pn}, Seed: opt.Seed}, trials, opt.Workers)
		if err != nil {
			return err
		}
		name := fmt.Sprint(w)
		if w == 0 {
			name = "single blast"
		}
		res.Rows[i] = []string{
			name, ms(clean), ms(st.Elapsed.Mean()), ms(st.Elapsed.StdDev()),
			fmt.Sprintf("%.1f", float64(st.Retransmits)/float64(trials)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"smaller windows retransmit less per error (go-back-n never crosses a window boundary) at the cost of one extra ack exchange per window in the error-free time")
	return res, nil
}

func runUDPLoopback(opt Options) (*Result, error) {
	res := &Result{
		ID:     "udp-loopback",
		Title:  "64 KB over real UDP loopback (protocol elapsed, ms; 5 runs each)",
		Paper:  "shape check on a live transport",
		Header: []string{"protocol", "mean (ms)", "min (ms)", "max (ms)"},
	}
	payload := workload.Transfer{Name: "64KB", Bytes: 64 * 1024}.Payload(opt.Seed)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		res.Skipped = true
		res.Notes = append(res.Notes, fmt.Sprintf("no UDP loopback available: %v", err))
		return res, nil
	}
	defer conn.Close()
	srv := udplan.NewServer(conn)
	srv.SinkStream = func(wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		return func(int, []byte) {}, func(core.RecvResult) {}, true
	}
	go srv.Run()

	runs := 5
	if opt.Quick {
		runs = 2
	}
	for _, p := range []core.Protocol{core.StopAndWait, core.SlidingWindow, core.Blast} {
		var acc stats.Durations
		for i := 0; i < runs; i++ {
			e, err := udplan.Dial(conn.LocalAddr().String())
			if err != nil {
				res.Skipped = true
				res.Notes = append(res.Notes, fmt.Sprintf("dial: %v", err))
				return res, nil
			}
			cfg := core.Config{
				TransferID:     uint32(int(p)*100 + i + 1),
				Bytes:          len(payload),
				ChunkSize:      1000,
				Protocol:       p,
				Strategy:       core.GoBackN,
				RetransTimeout: 200 * time.Millisecond,
				MaxAttempts:    50,
				Linger:         100 * time.Millisecond,
				ReceiverIdle:   2 * time.Second,
				Payload:        payload,
			}
			// SendResult.Elapsed covers first data packet to final ack —
			// the paper's measurement window — and excludes the request
			// handshake (whose latency is the cap-of-one server finishing
			// the previous session's linger, not protocol cost).
			sres, err := udplan.Push(e, cfg)
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("udp push (%v): %w", p, err)
			}
			acc.Add(sres.Elapsed)
			e.Close()
		}
		res.Rows = append(res.Rows, []string{p.String(), ms(acc.Mean()), ms(acc.Min()), ms(acc.Max())})
	}
	res.Notes = append(res.Notes,
		"loopback has no 10 Mb/s wire: stop-and-wait pays a kernel round trip per packet while blast pays one per transfer, so the ordering — not the magnitude — is the reproduced result")
	return res, nil
}
