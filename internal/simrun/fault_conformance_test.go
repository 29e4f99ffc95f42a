package simrun

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
)

// Fault-injection conformance: one LoadScenario fault row runs through Run (the
// DES: station close/reopen) and RunUDP (socket close/rebind) at batch 1
// and 32 with the payload kept, and both recover the same transfer through
// core.PullResume.

// faultRows runs sc on the DES and over UDP at batch 1 and 32, data kept,
// handing each result to check. The UDP rows skip without loopback.
func faultRows(t *testing.T, sc LoadScenario, check func(t *testing.T, sub string, res LoadResult)) {
	t.Helper()
	for _, batch := range []int{0, 1, 32} {
		sub := fmt.Sprintf("batch%d", batch)
		if batch == 0 {
			sub = "des"
		}
		t.Run(sub, func(t *testing.T) {
			var res LoadResult
			var err error
			if batch == 0 {
				res, err = sc.Run()
			} else {
				if !udpAvailable() {
					t.Skip("no UDP loopback")
				}
				res, err = sc.RunUDP(UDP{Batch: batch, KeepData: true})
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != sc.N {
				t.Fatalf("completed %d/%d: %+v", res.Completed, sc.N, res.Clients)
			}
			check(t, sub, res)
		})
	}
}

// TestFaultConformance pins crash-recovery identity across substrates: a
// server that crashes after its 80th served chunk and restarts 200ms later
// loses no client's transfer. On the DES recovery is exactly one resumed
// session that re-requests a strict tail and re-fetches no verified chunk;
// over UDP — with its own socket-level crash mechanics — the crash forces a
// resume too, and the kept bytes are the seeded stream (ChecksumOK).
func TestFaultConformance(t *testing.T) {
	const chunks = 200
	sc := LoadScenario{
		Name:        "fault-conformance",
		N:           1,
		Bytes:       []int{chunks * 1000},
		Chunk:       1000,
		Concurrency: 2,
		Faults:      params.Faults{CrashAfterChunks: []int64{80}, Downtime: 200 * time.Millisecond},
		Resume:      &core.ResumeOptions{MaxResumes: 16, Backoff: 50 * time.Millisecond},
		Seed:        1,
	}
	faultRows(t, sc, func(t *testing.T, sub string, res LoadResult) {
		st := res.Clients[0].Resume
		if sub != "des" {
			if st.Sessions < 2 {
				t.Fatalf("sessions = %d; the crash did not force a resume", st.Sessions)
			}
			return
		}
		if st.Sessions != 2 || st.DupChunks != 0 {
			t.Fatalf("sessions %d, dups %d; want exactly 2 (one crash, one resume) and no re-fetch", st.Sessions, st.DupChunks)
		}
		if st.ResumedChunks == 0 || st.ResumedChunks >= chunks {
			t.Fatalf("resume re-requested %d of %d chunks; want a strict mid-transfer tail", st.ResumedChunks, chunks)
		}
	})
}

// TestFaultBlackholeConformance: client 0's receive path goes dark for 40
// chunks; it recovers on every substrate without a duplicate sink delivery.
func TestFaultBlackholeConformance(t *testing.T) {
	sc := LoadScenario{Name: "blackhole", N: 2, Bytes: []int{96 << 10},
		Faults: params.Faults{BlackholeAfter: 20, BlackholeCount: 40},
		Resume: &core.ResumeOptions{Backoff: 20 * time.Millisecond}, Seed: 5}
	faultRows(t, sc, func(t *testing.T, _ string, res LoadResult) {
		if res.Resume.DupChunks != 0 {
			t.Fatalf("blackhole recovery delivered %d duplicate chunks", res.Resume.DupChunks)
		}
	})
}

// TestFaultOverloadUDP: 16 clients against a 2-session cap over real
// sockets are shed with BUSY/RETRY-AFTER and all complete through backoff,
// with no verified chunk re-fetched.
func TestFaultOverloadUDP(t *testing.T) {
	if !udpAvailable() {
		t.Skip("no UDP loopback")
	}
	res, err := LoadScenario{Name: "overload-udp", N: 16, Concurrency: 2, RetryAfter: 10 * time.Millisecond,
		Resume: &core.ResumeOptions{MaxBusyWaits: 1 << 20, Backoff: 20 * time.Millisecond}, Seed: 9}.RunUDP(UDP{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Resume; res.Completed != 16 || r.BusyWaits == 0 || r.DupChunks != 0 {
		t.Fatalf("completed %d/16, %d BUSY waits, %d dups; want all, some, none", res.Completed, r.BusyWaits, r.DupChunks)
	}
}

// TestCrashRebindFailure: a restart that cannot rebind its address — taken
// by another socket during the downtime — is run's error, not a hang.
func TestCrashRebindFailure(t *testing.T) {
	if !udpAvailable() {
		t.Skip("no UDP loopback")
	}
	w := newUDPWorld(UDP{})
	h, err := w.serve("server", func(*session.Server) {})
	if err != nil {
		t.Fatal(err)
	}
	if !w.crash(h, 50*time.Millisecond) || w.crash(h, 50*time.Millisecond) {
		t.Fatal("want the first crash to take the server down and the second to find it down")
	}
	squatter, err := net.ListenPacket("udp", h.(*udpHost).addr)
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	if err := w.run(); err == nil || !strings.Contains(err.Error(), "server restart") {
		t.Fatalf("run = %v, want the failed rebind", err)
	}
}
