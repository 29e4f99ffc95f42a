package experiments

import (
	"fmt"
	"time"

	"blastlan/internal/analytic"
	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/simrun"
)

func init() {
	register(&Experiment{
		ID:    "ext-adaptive",
		Title: "Extension: fixed vs adaptive (Jacobson/Karn) retransmission timeout",
		Paper: "Figures 5–6 show Tr drives both the knee of the expected time and R1's σ, and the paper hand-picks Tr as multiples of the known T0; an estimator that learns the response time online (Jacobson 1988, three years later) removes the tuning knob — wherever there are repeated exchanges to learn from",
		Run:   runAdaptive,
	})
}

// adaptiveVariant is one (protocol, timeout) column pair: a fixed column
// keeps the fixed schedule's pinned Tr, an adaptive one floors the
// estimator at 1 ms (MinRTO), under the ≈3 ms response it must find.
type adaptiveVariant struct {
	label string
	cfg   core.Config
}

func runAdaptive(opt Options) (*Result, error) {
	m := params.VKernel()
	t01 := analytic.TimeStopAndWait(m, 1) // 5.9 ms
	t0d := analytic.TimeBlast(m, 64)      // 173 ms
	trials := 400
	if opt.Quick {
		trials = 50
	}
	res := &Result{
		ID:    "ext-adaptive",
		Title: fmt.Sprintf("64 KB transfers, fixed vs learned Tr (DES, %d trials)", trials),
		Paper: "the estimator converges to the response time, recovering hand-tuned behaviour without knowing T0",
		Header: []string{"pn",
			"SAW Tr=10·T0(1)", "σ", "SAW adaptive", "σ",
			"MB8 Tr=10·T0(D)", "σ", "MB8 adaptive", "σ"},
	}
	base := []adaptiveVariant{
		{"saw-fixed", core.Config{Protocol: core.StopAndWait, RetransTimeout: 10 * t01}},
		{"saw-adaptive", core.Config{Protocol: core.StopAndWait, RetransTimeout: 10 * t01, MinRTO: time.Millisecond}},
		// Multiblast with 8-packet windows: the first window's response
		// seeds the estimator for the remaining seven.
		{"mb-fixed", core.Config{Protocol: core.Blast, Strategy: core.FullNoNak,
			Window: 8, RetransTimeout: 10 * t0d}},
		{"mb-adaptive", core.Config{Protocol: core.Blast, Strategy: core.FullNoNak,
			Window: 8, RetransTimeout: 10 * t0d, MinRTO: time.Millisecond}},
	}
	for _, pn := range []float64{1e-4, 1e-3, 1e-2} {
		row := []string{fmt.Sprintf("%.0e", pn)}
		for _, v := range base {
			cfg := v.cfg
			cfg.TransferID = 1
			cfg.Bytes = 64 * 1024
			acc, failures, err := desSample(cfg, simrun.Options{Cost: m,
				Loss: params.LossModel{PNet: pn}, Seed: opt.Seed}, trials, opt.Workers)
			if err != nil {
				return nil, err
			}
			if failures > 0 {
				return nil, fmt.Errorf("ext-adaptive: %s: %d failures at pn=%g", v.label, failures, pn)
			}
			row = append(row, ms(acc.Mean()), ms(acc.StdDev()))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("seeds are deliberately mis-tuned 10× high (SAW %s, multiblast %s); the estimator converges to the ≈3 ms response latency after the first exchanges and cuts both mean and σ toward the hand-tuned values",
			ms(10*t01)+" ms", ms(10*t0d)+" ms"),
		"a single-window blast cannot adapt within one transfer — its only RTT sample arrives with the ack that completes it; persistent senders (the V kernel) would carry the estimator across transfers",
		"Karn's rule: no samples from retransmitted exchanges, so loss slows learning but never corrupts it")
	return res, nil
}
