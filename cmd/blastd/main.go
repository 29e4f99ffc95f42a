// Command blastd is the transfer daemon: it answers blastcp's push and
// pull requests over UDP using the paper's protocols.
//
//	blastd -listen 127.0.0.1:7025 -out /tmp/received
//	blastd -concurrency 64 -batch 32            # sharded, sendmmsg-batched
//
// The daemon is concurrent by default: arrivals are demultiplexed by peer
// address into per-session goroutines (up to -concurrency at once), and the
// hot path batches syscalls with sendmmsg/recvmmsg frame rings (-batch). On
// the GSO tier the listening socket receives coalesced (UDP_GRO): a pushing
// client's superbuffer crosses the kernel and the demux loop as one burst
// and is split into packets only by the session that consumes it, each
// session queueing at most one granted socket buffer's worth of bursts.
//
// Pushed transfers stream to numbered files under -out, or are verified
// against their incremental checksum and discarded when -out is empty.
// Aborted pushes (a client that vanished mid-blast, a force-closed session
// at shutdown) release their file and discard the partial. Pull requests
// are served deterministic pseudo-random data generated chunk by chunk — a
// 1 GB pull never allocates a 1 GB buffer — with a running whole-transfer
// checksum logged so blastcp can verify end to end.
//
// With -serve, named pulls (blastcp -get NAME) are answered from real files
// under the given directory through the disk-backed store: a cache of
// large file extents with single-flight fills and pipelined read-ahead
// (-cache-mb, -readahead), so N clients pulling the same file — at any
// chunk size — cost one pass over the disk. Anonymous pulls still hit the
// seeded generator. A -serve daemon also answers third-party copy asks
// (blastcp -copy NAME -dest B): it pushes the named file to the target
// daemon itself, relaying progress to the orchestrator, so replicating
// between two servers never routes the bytes through the client.
//
// Striped pulls (blastcp -streams N) arrive as N concurrent sessions each
// requesting a byte range of one logical stream; the daemon resolves each
// range against the same generator, so the client's reassembly is
// byte-identical to an unstriped pull. Requests carrying a rate-control
// policy id in the REQ flags (blastcp -controller aimd|autotune) are
// served with that controller reacting to observed drops and NAKs instead
// of the fixed REQ parameters; an id this build does not know degrades to
// AIMD. Each served pull's log line then ends with what the policy did:
// windows driven, cuts (and how many a timeout caused), holds and the
// final window. Every served pull's line closes with how many of the
// sender's response waits timed out.
//
// SIGINT/SIGTERM drains gracefully: new sessions are refused (clients
// retry elsewhere), active transfers get up to -drain to finish — a second
// signal forces the socket closed — and a per-host session summary, the
// count of datagrams dropped on full session inboxes (plus, with -serve, the
// store's cache counters) is logged on exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/store"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7025", "UDP address to listen on")
		outDir      = flag.String("out", "", "directory for pushed transfers (empty: verify and discard)")
		serveDir    = flag.String("serve", "", "directory of real files served to named pulls (blastcp -get) through the disk-backed store")
		cacheMB     = flag.Int("cache-mb", 256, "hot-object cache budget for -serve, in MiB")
		readAhead   = flag.Int("readahead", 8, fmt.Sprintf("extents (%d KiB each) of pipelined read-ahead for -serve (0 disables)", store.ExtentBytes>>10))
		maxBytes    = flag.Int("max-bytes", 1<<30, "reject transfers larger than this")
		concurrency = flag.Int("concurrency", 8, "session cap: concurrent transfers served at once (1 = one session at a time, others get BUSY)")
		batch       = flag.Int("batch", 32, "syscall batch size for sendmmsg/recvmmsg frame rings (1 = single-syscall)")
		sockets     = flag.Int("sockets", 1, "SO_REUSEPORT demux sockets sharing the listen port, one demux loop each (Linux; 1 = single socket)")
		tierName    = flag.String("tier", "auto", "cap the batched datapath tier: gso, mmsg, writeto, auto")
		mtu         = flag.Int("mtu", 0, "max datagram size for jumbo-frame chunks (0: default 2048)")
		sockbuf     = flag.Int("sockbuf", 4<<20, "kernel socket buffer size (large windows overflow the default)")
		drain       = flag.Duration("drain", 10*time.Second,
			"graceful-shutdown bound: on SIGINT/SIGTERM, stop admitting sessions and wait this long for active transfers to finish before dropping them")
	)
	flag.Parse()

	tier, err := udplan.ParseTier(*tierName)
	if err != nil {
		log.Fatalf("blastd: %v", err)
	}
	conns, err := udplan.ListenReuseport("udp", *listen, *sockets)
	if err != nil {
		log.Fatalf("blastd: %v", err)
	}
	if *sockbuf > 0 {
		for _, c := range conns {
			udplan.SetConnBuffers(c, *sockbuf)
		}
	}

	srv := udplan.NewMultiServer(conns...)
	defer srv.Close()
	srv.Concurrency = *concurrency
	srv.Batch = *batch
	srv.MTU = *mtu
	srv.MaxTier = tier
	srv.Logf = log.Printf
	log.Printf("blastd: serving on %s (concurrency %d, batch %d, %d socket(s), tier %s)",
		conns[0].LocalAddr(), *concurrency, *batch, len(conns), srv.Tier())
	// Per-peer rate log (one line per completed transfer) plus the per-peer
	// totals the shutdown summary prints.
	summary := newPeerSummary()
	srv.Done = func(ts udplan.TransferStats) {
		verb := "served pull to"
		if ts.Push {
			verb = "received push from"
		}
		policy := ""
		if st := ts.Controller; st != nil {
			policy = fmt.Sprintf(", policy %s: %d windows, %d cuts (%d on timeout), %d holds, final window %d",
				st.Policy, st.Windows, st.Cuts, st.TimeoutCuts, st.Holds, st.FinalWindow)
		}
		timeouts := ""
		if !ts.Push {
			timeouts = fmt.Sprintf(", %d timeouts", ts.Timeouts)
		}
		log.Printf("blastd: %s %v: %d bytes in %v (%.2f MB/s), %d packets (%d retransmitted)%s%s",
			verb, ts.Peer, ts.Bytes, ts.Elapsed, ts.MBps(), ts.Packets, ts.Retransmits, policy, timeouts)
		summary.add(ts)
	}

	// Pulls stream from a seeded chunk generator: deterministic per logical
	// stream, so retransmissions regenerate identical bytes and the client
	// can verify the checksum without the daemon ever buffering the
	// transfer. A striped request (blastcp -streams) selects a
	// chunk-aligned view into the stream named by its REQ — every stripe of
	// one logical pull regenerates the same bytes at the same offsets, so
	// the client's reassembly is byte-identical to an unstriped pull. The
	// running checksum of the served range is logged the first time it
	// completes in order.
	seeded := func(r wire.Req) (core.ChunkSource, bool) {
		src, ok := core.SeededReqSource(r)
		if !ok {
			return nil, false // degenerate request: the generator needs bytes and a chunk size
		}
		stream := int(r.StreamBytes())
		if int(r.Bytes) > *maxBytes || stream > *maxBytes {
			log.Printf("blastd: rejecting %d-byte pull of a %d-byte stream (limit %d)",
				r.Bytes, stream, *maxBytes)
			return nil, false
		}
		var acc wire.SumAcc
		next, total := 0, int(r.Bytes+uint64(r.Chunk)-1)/int(r.Chunk)
		return func(seq int, dst []byte) []byte {
			b := src(seq, dst)
			if seq == next { // fold each chunk into the running checksum once
				acc.AddAt(seq*int(r.Chunk), b)
				if next++; next == total {
					if r.Total > 0 {
						log.Printf("blastd: streaming stripe [%d,%d) of %d-byte pull, range checksum %04x",
							r.Offset(), r.Offset()+r.Bytes, stream, acc.Sum16())
					} else {
						log.Printf("blastd: streaming %d-byte pull, checksum %04x", r.Bytes, acc.Sum16())
					}
				}
			}
			return b
		}, true
	}
	srv.Source = seeded

	// Named pulls come from real files through the disk-backed store; the
	// store refuses anonymous REQs, so those fall back to the generator.
	logStore := func() {}
	if *serveDir != "" {
		ra := *readAhead
		if ra == 0 {
			ra = -1 // Options treats 0 as "default"; the flag's 0 means off
		}
		// Tell the runtime the budget: every miss makes a fresh extent and an
		// evicted one waits for a collection, so at the default GOGC the heap
		// grows to twice the live cache before the collector runs. The limit
		// leaves the cache plus an eighth (at least 32 MiB) for everything
		// else the daemon holds.
		cache := int64(*cacheMB) << 20
		if cache <= 0 {
			cache = 256 << 20 // store.Options' default budget: the limit needs the number
		}
		memLimit := cache + max(cache/8, 32<<20)
		debug.SetMemoryLimit(memLimit)
		st := store.Open(*serveDir, store.Options{
			CacheBytes: cache,
			ReadAhead:  ra,
			Logf:       log.Printf,
		})
		defer st.Close()
		// The exit summary says which regime the cache ran in: evictions
		// and read ops near the miss count mean the hot set outgrew it.
		logStore = func() {
			x := st.Stats()
			log.Printf("blastd: store: %d extent hits, %d misses, %d read ops, %d evictions, %d bytes cached",
				x.Hits, x.Misses, x.ReadOps, x.Evictions, x.BytesCached)
		}
		srv.SourceEnv = func(r wire.Req, env core.Env) (core.ChunkSource, bool) {
			if r.Name == "" {
				return seeded(r)
			}
			if stream := int(r.StreamBytes()); stream > *maxBytes {
				log.Printf("blastd: rejecting %d-byte named pull (limit %d)", stream, *maxBytes)
				return nil, false
			}
			return st.SourceReq(r, env)
		}
		srv.Stat = st.StatReq

		// Third-party copy (blastcp -copy NAME -dest B): asked by an
		// orchestrator, this daemon pushes the named object to the target
		// daemon itself — the ordinary push engine on a fresh socket — while
		// the control session relays quantised progress back. The orchestrator
		// never carries the bytes.
		srv.Copy = func(r wire.Req, env core.Env, progress func(int64)) (int64, error) {
			size, ok := st.StatReq(r)
			if !ok {
				return 0, fmt.Errorf("no such object %q", r.Name)
			}
			if size > int64(*maxBytes) {
				return 0, fmt.Errorf("%d-byte object exceeds the %d-byte limit", size, *maxBytes)
			}
			chunk := 1000
			src, err := st.Source(r.Name, chunk, 0, nil)
			if err != nil {
				return 0, err
			}
			e, err := udplan.Dial(r.Target)
			if err != nil {
				return 0, fmt.Errorf("dial %s: %v", r.Target, err)
			}
			defer e.Close()
			if *sockbuf > 0 {
				e.SetSocketBuffers(*sockbuf)
			}
			e.SetBatch(*batch)
			// The push engine re-reads chunks on retransmit; progress tracks
			// the high-water mark of first transmissions only.
			var sent int64
			cfg := core.Config{
				TransferID: 1,
				Bytes:      int(size),
				ChunkSize:  chunk,
				Protocol:   core.Blast,
				Strategy:   core.GoBackN,
				Window:     64,
				Source: func(seq int, dst []byte) []byte {
					b := src(seq, dst)
					if hi := int64(seq)*int64(chunk) + int64(len(b)); hi > sent {
						sent = hi
						progress(sent)
					}
					return b
				},
				RetransTimeout: 200 * time.Millisecond,
				MaxAttempts:    100,
				Linger:         500 * time.Millisecond,
			}
			log.Printf("blastd: copying %q (%d bytes) to %s", r.Name, size, r.Target)
			if _, err := udplan.Push(e, cfg); err != nil {
				return 0, fmt.Errorf("push to %s: %v", r.Target, err)
			}
			return size, nil
		}
		log.Printf("blastd: serving files from %s (cache %d MiB, read-ahead %d extents, memory limit %d MiB)", *serveDir, *cacheMB, *readAhead, memLimit>>20)
	} else {
		// Without a store there is nothing a copy could name; answer the ask
		// with a clear refusal instead of letting the orchestrator time out.
		srv.Copy = func(r wire.Req, env core.Env, progress func(int64)) (int64, error) {
			return 0, fmt.Errorf("this daemon serves no named objects (start it with -serve)")
		}
	}

	// Pushes stream straight to disk (or into the incremental checksum):
	// no transfer-sized buffer on the receive side either. FileSink owns
	// the file lifecycle — close exactly once per push, discard partials
	// from aborted transfers — and rejects degenerate or oversized REQs at
	// admission.
	fsink := &store.FileSink{Dir: *outDir, MaxBytes: *maxBytes, Logf: log.Printf}
	srv.SinkStream = fsink.SinkStream

	// Graceful shutdown: SIGINT/SIGTERM stops admitting new sessions and
	// drains the active ones (bounded by -drain) instead of dropping them
	// mid-blast; a second signal — or the bound expiring — forces the
	// socket closed under whatever is left.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run() }()

	var runErr error
	select {
	case runErr = <-runDone:
	case <-sigc:
		log.Printf("blastd: shutdown: draining %d active session(s), bound %v (signal again to force)",
			srv.Active(), *drain)
		srv.BeginDrain()
		timer := time.NewTimer(*drain)
		select {
		case runErr = <-runDone:
			timer.Stop()
		case <-timer.C:
			log.Printf("blastd: drain bound expired; dropping %d session(s)", srv.Active())
			srv.Close()
			runErr = <-runDone
		case <-sigc:
			log.Printf("blastd: forced; dropping %d session(s)", srv.Active())
			srv.Close()
			runErr = <-runDone
		}
	}
	summary.log()
	// Receiver overrun in user space, where RcvbufErrors cannot see it: a
	// session too slow for its sender overflowed its inbox this many times.
	log.Printf("blastd: %d datagram(s) dropped on full session inboxes", srv.InboxDrops())
	logStore()
	if runErr != nil {
		log.Fatalf("blastd: %v", runErr)
	}
}

// peerSummary accumulates per-host transfer totals for the shutdown log.
type peerSummary struct {
	mu sync.Mutex
	m  map[string]*peerTotals
}

type peerTotals struct {
	transfers   int
	pushes      int
	bytes       int64
	packets     int64
	retransmits int64
	elapsed     time.Duration
}

func newPeerSummary() *peerSummary { return &peerSummary{m: map[string]*peerTotals{}} }

func (s *peerSummary) add(ts udplan.TransferStats) {
	peer := "<unknown>"
	if ts.Peer != nil {
		// Keyed by host: every client run dials from a fresh ephemeral port,
		// so keying by address would grow the map by one entry per transfer
		// for the daemon's lifetime.
		peer = ts.Peer.String()
		if host, _, err := net.SplitHostPort(peer); err == nil {
			peer = host
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.m[peer]
	if t == nil {
		t = &peerTotals{}
		s.m[peer] = t
	}
	t.transfers++
	if ts.Push {
		t.pushes++
	}
	t.bytes += int64(ts.Bytes)
	t.packets += int64(ts.Packets)
	t.retransmits += int64(ts.Retransmits)
	t.elapsed += ts.Elapsed
}

// log prints one line per host, then the grand total.
func (s *peerSummary) log() {
	s.mu.Lock()
	defer s.mu.Unlock()
	peers := make([]string, 0, len(s.m))
	for p := range s.m {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	var total peerTotals
	for _, p := range peers {
		t := s.m[p]
		log.Printf("blastd: session summary %s: %d transfer(s) (%d push), %d bytes, %d packets (%d retransmitted), busy %v",
			p, t.transfers, t.pushes, t.bytes, t.packets, t.retransmits, t.elapsed.Round(time.Millisecond))
		total.transfers += t.transfers
		total.pushes += t.pushes
		total.bytes += t.bytes
		total.packets += t.packets
		total.retransmits += t.retransmits
		total.elapsed += t.elapsed
	}
	log.Printf("blastd: served %d transfer(s) from %d peer(s), %d bytes total (%d retransmitted packets)",
		total.transfers, len(peers), total.bytes, total.retransmits)
}
