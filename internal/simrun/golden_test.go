package simrun

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/sim"
)

// The golden digests pin virtual time across commits, not only across runs:
// they were captured at the commit before the kernel's scheduling machinery
// was replaced (PR 24) and must never change unless the model itself does.
// A scheduling change that reorders two same-instant events moves some
// client's Start, End or counters, and fails the affected row by name.

// digest is FNV-64a over a sequence of integers.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d digest) counts(c Counts) {
	d.ints(int64(c.DataSent), int64(c.Retransmits), int64(c.Rounds), int64(c.Timeouts), int64(c.AcksIn),
		int64(c.NaksIn), int64(c.DataRecv), int64(c.Duplicates), int64(c.AcksOut), int64(c.NaksOut))
}

func (d digest) resume(r core.ResumeStats) {
	d.ints(int64(r.Sessions), int64(r.BusyWaits), int64(r.ResumedChunks), int64(r.DupChunks))
}

func (d digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func loadDigest(r LoadResult) string {
	d := newDigest()
	for _, c := range r.Clients {
		d.ints(int64(c.Start), int64(c.End))
		d.counts(c.Counts)
	}
	d.ints(int64(r.Makespan), int64(math.Float64bits(r.Fairness)), int64(r.Served))
	return d.sum()
}

// benchLoad64 is benchmark/simload.go's scenario written out: the workload
// whose wall time the benchmark measures is the one whose virtual time is
// pinned here.
func benchLoad64(seed int64) LoadScenario {
	return LoadScenario{
		Name:        "load64",
		N:           64,
		Bytes:       []int{64 << 10, 256 << 10},
		Strategies:  []core.Strategy{core.GoBackN, core.Selective},
		Arrival:     50 * time.Millisecond,
		Concurrency: 8,
		Seed:        seed,
	}
}

func TestGoldenVirtualTime(t *testing.T) {
	check := func(t *testing.T, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("digest %s, want %s: virtual time moved", got, want)
		}
	}

	load64 := []string{
		"0bae6f766eafc1e1", "41627318617c394c", "fd60ad1a8b487c6a", "12302f132a79ccd3",
		"c66347eb9ed7212f", "807dcdfdf6d9edb5", "4670a268eeca8cca", "8cc6a5a3310b840c",
	}
	for i, want := range load64 {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("load64/seed%d", seed), func(t *testing.T) {
			res, err := benchLoad64(seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			check(t, loadDigest(res), want)
		})
	}

	t.Run("overload512", func(t *testing.T) {
		res, err := FaultScenario{
			Name:         "overload",
			N:            512,
			Bytes:        []int{4 << 10},
			Concurrency:  8,
			RetryAfter:   50 * time.Millisecond,
			Arrival:      100 * time.Millisecond / 8,
			MaxBusyWaits: 1 << 20,
			Seed:         9,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 512 || res.BusyWaits == 0 {
			t.Fatalf("completed %d/512 with %d BUSY waits: not an overload", res.Completed, res.BusyWaits)
		}
		d := newDigest()
		for _, c := range res.Clients {
			d.ints(int64(c.Start), int64(c.End), int64(c.DataRecv))
			d.resume(c.Resume)
		}
		d.ints(int64(res.Makespan), int64(res.Served), int64(res.Sessions), int64(res.BusyWaits))
		// Re-pinned when a pull's REQ began to be re-asked after Tr of
		// silence instead of 4·Tr (625e577b7acc6ed9 before): the makespan
		// fell from 434 to 149 ms over the same 877 sessions and 356 BUSY
		// waits.
		check(t, d.sum(), "f0b2e3039b4a55a9")
	})

	t.Run("contention/aimd/hostile/8", func(t *testing.T) {
		hostile := NamedAdversary{Name: "hostile", Adv: params.Adversary{
			Loss:      params.LossModel{PNet: 0.01},
			JitterMax: 500 * time.Microsecond,
		}}
		res, err := ContentionSweep{}.withDefaults().cell("aimd", hostile, 8, 5).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 8 || res.Agg.Retransmits == 0 {
			t.Fatalf("completed %d/8 with %d retransmits: the adversary did not bite", res.Completed, res.Agg.Retransmits)
		}
		// Re-pinned when aimd began holding its window on sparse loss
		// instead of cutting on every repair (ed0c1d1f9ceb09a9 before), and
		// again when a lost control packet began to cost a round trip — a
		// REQ re-asked after Tr, an RTO started from the host's last
		// smoothed RTT, a lossy transfer's FIN sent twice (db2a4738a0507ba8
		// before), and again when the blast receiver began to hold a gapped
		// FlagLast's verdict for a reorder window it learns from a NAK that
		// a late packet proved wrong (4d8aad50c296d594 before): the only
		// pinned cell that reorders, its receivers sent 22 NAKs instead of
		// 51 and its senders re-sent 433 packets instead of 622, and the
		// makespan fell from 26.8 to 25.4 ms (26935bce80eb85f5 before), and
		// again when a timeout began to double the RTO until the next clean
		// sample (RFC 6298 §5.5) and load counts began to carry the senders'
		// timeouts: the same 433 re-sent packets, 5 timeouts, the makespan
		// 25.438 → 25.430 ms.
		check(t, loadDigest(res), "843423ae08b1fb45")
	})

	t.Run("fanout/tree", func(t *testing.T) {
		res, err := FanoutScenario{Name: "golden", N: 8, Relays: 4, Bytes: 64000, Chunk: 1000, Seed: 42}.Run()
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for _, r := range res.Receivers {
			d.ints(int64(r.Start), int64(r.End))
			d.counts(r.Counts)
			d.resume(r.Resume)
		}
		for _, r := range res.Relays {
			d.counts(r.Counts)
			d.resume(r.Resume)
		}
		d.ints(int64(res.Makespan), int64(res.SourceDataSent), res.SourceTxBytes)
		check(t, d.sum(), "dd2b3a6e4c31f3d6")
	})

	// Background load never lets the heap drain, so this one is driven by
	// Kernel.Step rather than Run.
	t.Run("transfer/csma-background", func(t *testing.T) {
		res, err := Transfer(core.Config{
			TransferID:     1,
			Bytes:          64 << 10,
			Protocol:       core.Blast,
			Strategy:       core.GoBackN,
			RetransTimeout: 2 * time.Second,
		}, Options{Cost: params.Standalone3Com(), Seed: 1, Medium: sim.MediumCSMACD, BackgroundLoad: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("transfer failed: %v / %v", res.SendErr, res.RecvErr)
		}
		if res.Collisions == 0 {
			t.Fatal("no collisions at 50% background load")
		}
		d := newDigest()
		d.ints(int64(res.Send.Elapsed), int64(res.Recv.Elapsed), res.Collisions,
			res.SrcCounters.TxPackets, res.SrcCounters.RxPackets, res.DstCounters.TxPackets, res.DstCounters.RxPackets)
		d.counts(outcomeOf(res.Send, res.Recv).Counts)
		check(t, d.sum(), "bd281006652ba6b2")
	})
}
