package simrun

import (
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/disk"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/store"
)

// DiskLoadScenario is the disk-economy experiment on the DES: N clients pull
// the same named file from one simulated server whose reads go through the
// disk-backed store — the extent cache and single-flight fills of
// internal/store — over a modelled disk (disk.Geometry), each miss one
// extent-sized read the model charges as one large page. The first reader
// pays the platter's price in virtual time; everyone overlapping or
// following hits the cache, so the scenario measures exactly the paper's
// argument about accessing the disk in large quantities: how many disk
// reads does a fleet of pullers actually cost?
//
// Every client stats the object first (the named-pull handshake blastcp
// -get uses), then pulls it by name. The whole run is deterministic: same
// seed, same bits, including the store's counters and every virtual
// timestamp.
type DiskLoadScenario struct {
	// Name labels the scenario in test output and experiment tables.
	Name string
	// Cost is the simulator network model; the zero value means the
	// modern-gigabit preset.
	Cost params.CostModel
	// Disk is the serving host's disk model; the zero value means the
	// paper-era Fujitsu Eagle.
	Disk disk.Geometry
	// N is the number of clients (default 4), all pulling the same file.
	N int
	// FileBytes is the served file's size (default 1 MiB).
	FileBytes int
	// Chunk is the data packet size (default params.DataPacketSize).
	Chunk int
	// Window splits blasts (0: single blast per transfer).
	Window int
	// Tr is the clients' retransmission timeout (default 100 ms virtual).
	Tr time.Duration
	// Spacing staggers the clients deterministically: client i arrives at
	// i*Spacing. Zero means everyone arrives at t=0 — the thundering herd
	// against one cold cache.
	Spacing time.Duration
	// Concurrency is the server's session cap (default 4).
	Concurrency int
	// CacheBytes is the store's hot-object cache budget (0: store default).
	// Size it below FileBytes to watch CLOCK eviction under pressure.
	CacheBytes int64
	// Seed drives the file's content and the network model's randomness.
	Seed int64
}

// diskLoadObject is the one file every client pulls.
const diskLoadObject = "data.bin"

func (sc DiskLoadScenario) withDefaults() DiskLoadScenario {
	if sc.Disk.RotationPeriod == 0 {
		sc.Disk = disk.FujitsuEagle()
	}
	if sc.N <= 0 {
		sc.N = 4
	}
	if sc.FileBytes <= 0 {
		sc.FileBytes = 1 << 20
	}
	if sc.Chunk == 0 {
		sc.Chunk = params.DataPacketSize
	}
	if sc.Tr == 0 {
		sc.Tr = 100 * time.Millisecond
	}
	if sc.Concurrency <= 0 {
		sc.Concurrency = 4
	}
	return sc
}

// DiskLoadClient is one client's end-to-end outcome.
type DiskLoadClient struct {
	Client     int
	Arrival    time.Duration // scheduled arrival (virtual)
	Start      time.Duration // stat issued (virtual)
	End        time.Duration // transfer complete (virtual)
	Elapsed    time.Duration // End - Start: stat + queueing + transfer
	StatBytes  int64         // size the stat reply reported
	Completed  bool
	ChecksumOK bool
	Err        string
}

// DiskLoadResult reports one disk-load run.
type DiskLoadResult struct {
	Clients   []DiskLoadClient
	Served    int           // transfers the server completed
	Completed int           // clients that finished with an intact payload
	Makespan  time.Duration // first arrival to last completion (virtual)
	// Store is the store's counter snapshot after the run: the experiment's
	// headline numbers. With a cache at least file-sized, ReadOps equals
	// the file's extent count no matter how many clients pulled or at what
	// chunk size — one pass over the platter for the whole fleet, in
	// store.ExtentBytes pages.
	Store store.Stats
}

// Run executes the scenario once on a fresh kernel, server and store. It
// runs on the substrate seam's DES binding only: the store's Sim mode
// charges its disk reads to the virtual clock.
func (sc DiskLoadScenario) Run() (DiskLoadResult, error) {
	sc = sc.withDefaults()
	w, err := newDESWorld(sc.Cost, sc.Seed)
	if err != nil {
		return DiskLoadResult{}, err
	}

	fs := store.NewSimFS(sc.Disk)
	fs.Add(diskLoadObject, sc.Seed, sc.FileBytes)
	st := store.New(fs, store.Options{
		Sim:        true,
		CacheBytes: sc.CacheBytes,
	})
	var log servedLog
	srv, _ := w.serve("server", func(s *session.Server) { // a DES host always starts
		s.Concurrency = sc.Concurrency
		s.Idle = time.Duration(sc.N)*sc.Spacing + 5*time.Minute
		s.SourceEnv = st.SourceReq
		s.Stat = st.StatReq
		s.Done = log.done
	})

	want := core.SeededChecksum(sc.Seed, sc.FileBytes, 1024)
	results := make([]DiskLoadClient, sc.N)
	for i := range results {
		r := &results[i]
		r.Client = i
		r.Arrival = time.Duration(i) * sc.Spacing
		w.client(fmt.Sprintf("client%d", i), srv, r.Arrival, params.Adversary{}, 0, func(env core.Env) {
			cfg := core.Config{
				TransferID:     uint32(i + 1),
				ChunkSize:      sc.Chunk,
				Protocol:       core.Blast,
				Strategy:       core.Selective,
				Window:         sc.Window,
				RetransTimeout: sc.Tr,
				Sink:           func(int, []byte) {}, // the checksum is the evidence
			}
			r.Start = w.now()
			size, err := core.Stat(env, cfg, diskLoadObject)
			if err != nil {
				r.Err = fmt.Sprintf("stat: %v", err)
				return
			}
			r.StatBytes = size
			cfg.Name, cfg.Bytes = diskLoadObject, int(size)
			res, err := core.Request(env, cfg)
			r.End = w.now()
			r.Elapsed = r.End - r.Start
			if err != nil {
				r.Err = err.Error()
				return
			}
			r.Completed = res.Completed
			r.ChecksumOK = res.Completed && res.Checksum == want
		})
	}
	if err := w.run(); err != nil {
		return DiskLoadResult{}, fmt.Errorf("simrun: diskload %s: %w", sc.Name, err)
	}

	out := DiskLoadResult{Clients: results, Served: log.n, Store: st.Stats()}
	var span makespan
	for i := range results {
		r := &results[i]
		span.add(r.Arrival, r.End)
		if r.Completed && r.ChecksumOK {
			out.Completed++
		}
	}
	out.Makespan = span.span()
	return out, nil
}
