// Command blastcp moves data to or from a blastd daemon using the paper's
// protocols.
//
//	blastcp -to 127.0.0.1:7025 -push file.bin          # MoveTo: push a file
//	blastcp -to 127.0.0.1:7025 -pull 65536             # MoveFrom: pull n bytes
//	blastcp -to 127.0.0.1:7025 -push f -proto saw      # compare protocols
//	blastcp -to 127.0.0.1:7025 -pull 1048576 -window 64 -strategy selective
//	blastcp -to 127.0.0.1:7025 -pull 67108864 -window 128 -batch 32  # batched syscalls
//	blastcp -to 127.0.0.1:7025 -pull 1048576 -chunk 1000             # paper-sized packets
//	blastcp -to 127.0.0.1:7025 -pull 1048576 -mtu 9000               # jumbo frames
//	blastcp -to 127.0.0.1:7025 -pull 268435456 -streams 4            # striped parallel pull
//	blastcp -to 127.0.0.1:7025 -pull 67108864 -controller aimd       # AIMD rate control
//	blastcp -to 127.0.0.1:7025 -pull 67108864 -controller autotune   # hill-climbing window
//	blastcp -to 127.0.0.1:7025 -get data.bin -o local.bin            # named pull from -serve
//	blastcp -to 127.0.0.1:7025 -get data.bin -streams 4              # striped named pull
//	blastcp -to 127.0.0.1:7025 -pull 67108864 -resume                # survive a server restart
//	blastcp -to 127.0.0.1:7025 -pull 268435456 -streams 4 -resume    # per-stripe repair
//	blastcp -to 127.0.0.1:7025 -pull 65536 -chunk 1000 -sum 1a2b     # verify the checksum
//	blastcp -to A:7025 -copy data.bin -dest B:7025                   # third-party copy A→B
//
// Every mode moves the largest chunk one packet to -to carries, unless
// -chunk names one: the route MTU the kernel holds for the peer, less the
// IP and UDP headers, capped at the -mtu datagram slot (2048 bytes by
// default), less the 24-byte packet header. That is 2024 bytes on
// loopback, 1448 over a 1500-byte IPv4 Ethernet and 1428 over IPv6; where
// the route MTU cannot be read (off Linux) it is 1000. Each packet pays a
// fixed cost, so fewer, fuller packets move the same bytes faster. The
// stderr tier line names the chunk and the route MTU. A daemon started
// with a smaller -mtu refuses a chunk it cannot receive (exit 5); pass
// -chunk, or the same -mtu, to match it. A seeded -pull's bytes, and so its
// checksum, depend on the chunk (the daemon seeds its stream per chunk), so
// a script that checks one with -sum names -chunk too.
//
// A push streams the file: chunks are served out of one 256 KiB run buffer
// and the printed checksum accumulates as they first go out, so pushing 1 GB
// holds no 1 GB buffer and reads the file once. With -window left at 0 a
// push derives its blast window from the socket receive buffer the kernel
// actually granted (window x chunk <= 1/4 of it — 2 MiB at the default
// -sockbuf): a blast larger than the receiver's buffering only
// earns retransmissions. An explicit -window is honoured verbatim.
//
// A named pull (-get) stats the remote object first — the daemon answers
// with its size from the file store — then pulls exactly that many bytes by
// name, striped or not. -o writes the pulled bytes to a local file.
//
// A third-party copy (-copy NAME -dest B) asks the -to daemon to push the
// named object to daemon B itself: the bytes move server-to-server while
// this client only watches relayed progress — replicating between two fast
// machines is never throttled by the orchestrator's own link.
//
// Failures exit with a distinct code per class — 2 usage, 3 give-up (peer
// silent), 4 busy (admission refused past the retry budget, in every mode:
// -pull, -get, -push and -copy alike), 5 refused (the daemon answered that
// it will not serve the request: a range, a name it does not hold, a chunk
// its datagrams cannot carry), 6 checksum mismatch — each announced by a
// one-line taxonomy tag on stderr, so wrapping scripts can branch without
// parsing prose.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/store"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// Exit codes. Scripts wrap blastcp (a cron mover retries give-ups, honors
// busy back-pressure, aborts on refused ranges), so each failure class gets
// a distinct code and a single taxonomy line on stderr instead of a generic
// fatal log.
const (
	exitUsage    = 2 // bad flags or flag combinations
	exitGiveUp   = 3 // peer silent: transfer abandoned after max attempts/resumes
	exitBusy     = 4 // server refused admission (BUSY) past the retry budget, any mode
	exitRefused  = 5 // request refused: bad range, stripe, name or chunk
	exitChecksum = 6 // transfer completed but its checksum differs from -sum
)

// exitLabel is the taxonomy tag leading each failure line.
func exitLabel(code int) string {
	switch code {
	case exitUsage:
		return "usage"
	case exitGiveUp:
		return "give-up"
	case exitBusy:
		return "busy"
	case exitRefused:
		return "refused-range"
	case exitChecksum:
		return "checksum-mismatch"
	}
	return "error"
}

// fail prints one taxonomy line and exits with the class's code.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "blastcp: %s: %s\n", exitLabel(code), fmt.Sprintf(format, args...))
	os.Exit(code)
}

// failErr classifies a transfer error into its exit code: BUSY beats
// bad-config beats give-up (errors wrap, the most specific class wins). A
// remote copy failure — the serving side tried and reported why — lands in
// the refused class: the request named something the server could not move.
// So does the daemon's refusal of a request, a chunk too large for its
// datagrams among them; a chunk too large for this side's -mtu is a usage
// error: -chunk and -mtu disagree.
func failErr(context string, err error) {
	code := 1
	var busy *core.BusyError
	var rce *core.RemoteCopyError
	switch {
	case errors.Is(err, udplan.ErrMTU):
		code = exitUsage
	case errors.As(err, &busy):
		code = exitBusy
	case errors.As(err, &rce):
		code = exitRefused
	case errors.Is(err, core.ErrBadConfig):
		code = exitRefused
	case errors.Is(err, core.ErrGiveUp):
		code = exitGiveUp
	}
	fail(code, "%s: %v", context, err)
}

var protocols = map[string]core.Protocol{
	"saw":   core.StopAndWait,
	"sw":    core.SlidingWindow,
	"blast": core.Blast,
}

var strategies = map[string]core.Strategy{
	"full-no-nak": core.FullNoNak,
	"full-nak":    core.FullNak,
	"go-back-n":   core.GoBackN,
	"selective":   core.Selective,
}

func main() {
	var (
		to        = flag.String("to", "127.0.0.1:7025", "blastd address")
		pushFile  = flag.String("push", "", "file to push (MoveTo)")
		pullBytes = flag.Int("pull", 0, "bytes to pull (MoveFrom)")
		getName   = flag.String("get", "", "remote file to pull by name from the daemon's -serve store")
		copyName  = flag.String("copy", "", "ask the -to daemon to push this named object to -dest (third-party copy)")
		destAddr  = flag.String("dest", "", "target daemon a -copy pushes to (HOST:PORT)")
		outFile   = flag.String("o", "", "write pulled bytes to this local file")
		protoName = flag.String("proto", "blast", "protocol: saw, sw, blast")
		stratName = flag.String("strategy", "go-back-n", "blast strategy")
		chunk     = flag.Int("chunk", 0, "payload bytes per packet (0: the largest one packet to -to carries: its route MTU less the IP and UDP headers, capped at the -mtu slot, less the 24-byte header; 2024 on loopback, 1448 over a 1500-byte IPv4 Ethernet, 1000 where the route MTU cannot be read)")
		window    = flag.Int("window", 0, "multiblast window in packets (0: a pull is one blast; a push derives it, window x chunk <= 1/4 of the granted socket receive buffer)")
		tr        = flag.Duration("tr", 200*time.Millisecond, "retransmission timeout: fixed on the fixed schedule; under -controller the first and largest, the sender learning a shorter one from the responses it sees, down to 1ms")
		id        = flag.Uint("id", 1, "transfer id")
		batch     = flag.Int("batch", 32, "syscall batch size (sendmmsg/recvmmsg frame rings; 1 = single-syscall)")
		tierName  = flag.String("tier", "auto", "cap the batched datapath tier: gso, mmsg, writeto, auto")
		mtu       = flag.Int("mtu", 0, "max datagram size for jumbo chunks (0: default 2048)")
		sockbuf   = flag.Int("sockbuf", 4<<20, "kernel socket buffer size (large windows overflow the default)")
		streams   = flag.Int("streams", 1, "stripe a pull across this many parallel sessions")
		ctrlName  = flag.String("controller", "", "rate-control policy: "+strings.Join(core.ControllerNames(), ", ")+" (empty: fixed schedule)")
		lossTx    = flag.Float64("drop-tx", 0, "inject outbound loss (testing)")
		lossRx    = flag.Float64("drop-rx", 0, "inject inbound loss (testing)")
		resume    = flag.Bool("resume", false, "resume a pull across server crashes/restarts (offset REQs from the verified frontier; striped: a failed stripe resumes instead of aborting its siblings)")
		wantSum   = flag.String("sum", "", "expected transfer checksum (4 hex digits); mismatch exits 6. A seeded -pull's bytes and checksum depend on the chunk, so name -chunk beside it")
	)
	flag.Parse()

	proto, ok := protocols[*protoName]
	if !ok {
		fail(exitUsage, "unknown protocol %q", *protoName)
	}
	strat, ok := strategies[*stratName]
	if !ok {
		fail(exitUsage, "unknown strategy %q", *stratName)
	}
	modes := 0
	for _, on := range []bool{*pushFile != "", *pullBytes != 0, *getName != "", *copyName != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fail(exitUsage, "exactly one of -push, -pull, -get or -copy is required")
	}
	if *copyName != "" && *destAddr == "" {
		fail(exitUsage, "-copy requires -dest")
	}
	if *copyName == "" && *destAddr != "" {
		fail(exitUsage, "-dest applies to -copy only")
	}
	if *copyName != "" && (*streams > 1 || *outFile != "" || *resume) {
		fail(exitUsage, "-streams, -o and -resume do not apply to -copy")
	}
	if *streams > 1 && *pushFile != "" {
		fail(exitUsage, "-streams applies to pulls only")
	}
	if *outFile != "" && *pushFile != "" {
		fail(exitUsage, "-o applies to pulls only")
	}
	if *resume && *pushFile != "" {
		fail(exitUsage, "-resume applies to pulls only")
	}
	if *chunk < 0 {
		fail(exitUsage, "-chunk %d is negative", *chunk)
	}
	var expectSum uint16
	if *wantSum != "" {
		v, perr := strconv.ParseUint(*wantSum, 16, 16)
		if perr != nil {
			fail(exitUsage, "-sum %q is not a 16-bit hex checksum", *wantSum)
		}
		expectSum = uint16(v)
	}
	tier, err := udplan.ParseTier(*tierName)
	if err != nil {
		fail(exitUsage, "%v", err)
	}
	if *ctrlName != "" && core.ControllerID(*ctrlName) == 0 {
		fail(exitUsage, "unknown controller %q (registered: %s)", *ctrlName, strings.Join(core.ControllerNames(), ", "))
	}

	cfg := core.Config{
		TransferID:     uint32(*id),
		Protocol:       proto,
		Strategy:       strat,
		Window:         *window,
		Controller:     *ctrlName,
		RetransTimeout: *tr,
		// A stat, pull or push REQ is asked again after Tr of silence, so a
		// server that never answers is given up after MaxAttempts·Tr (20 s
		// at the default -tr); with -resume every session asks once, and
		// a silent one is dead after Tr.
		MaxAttempts:  100,
		Linger:       2**tr + 100*time.Millisecond,
		ReceiverIdle: 10 * time.Second,
	}

	if *copyName != "" {
		// Third-party copy: the -to daemon pushes the named object to -dest
		// itself; this client only orchestrates and watches the progress it
		// relays. The bytes never touch this machine.
		e, err := udplan.Dial(*to)
		if err != nil {
			failErr("dial", err)
		}
		defer e.Close()
		start := time.Now()
		n, err := core.Copy(e, cfg, *copyName, *destAddr, func(b int64) {
			if b > 0 {
				log.Printf("blastcp: copy progress: %d bytes moved", b)
			}
		})
		if err != nil {
			failErr(fmt.Sprintf("copy %q to %s", *copyName, *destAddr), err)
		}
		elapsed := time.Since(start)
		fmt.Printf("copied %d bytes from %s to %s in %v (%.2f MB/s server-to-server)\n",
			n, *to, *destAddr, elapsed.Round(time.Microsecond),
			float64(n)/elapsed.Seconds()/1e6)
		return
	}

	// open dials -to and configures the endpoint every transfer mode starts
	// on: -mtu, -sockbuf, -tier and -batch, then the chunk — -chunk, or the
	// largest the path and the datagram slot carry — which must fit the slot
	// before any REQ or stat is sent.
	open := func() *udplan.Endpoint {
		e, err := udplan.Dial(*to)
		if err != nil {
			failErr("dial", err)
		}
		if *mtu > 0 {
			if err := e.SetMTU(*mtu); err != nil {
				fail(exitUsage, "-mtu: %v", err)
			}
		}
		if *sockbuf > 0 {
			e.SetSocketBuffers(*sockbuf)
		}
		e.MaxTier = tier
		e.SetBatch(*batch)
		pathChunk, route := e.PathChunk()
		if cfg.ChunkSize = *chunk; cfg.ChunkSize == 0 {
			cfg.ChunkSize = pathChunk
		}
		log.Printf("blastcp: datapath tier %s (gro %v), chunk %d (route MTU %d)", e.Tier(), e.GRO(), cfg.ChunkSize, route)
		if err := e.ValidateConfig(cfg); err != nil {
			failErr("config", err)
		}
		return e
	}

	if *streams > 1 {
		// Striped pull: the fan-out dials the other stripes' endpoints, so
		// the loss knobs install per-stripe hooks (independent seeds per
		// stripe). Stripe 0 runs on the endpoint opened here, after a -get's
		// stat: the socket (and the daemon session the stat opened) carries
		// the first stripe instead of being thrown away after one round trip.
		cfg.Bytes = *pullBytes
		first := open()
		if *getName != "" {
			size, err := core.Stat(first, cfg, *getName)
			if err != nil {
				first.Close()
				failErr(fmt.Sprintf("stat %q", *getName), err)
			}
			log.Printf("blastcp: remote %q is %d bytes", *getName, size)
			cfg.Name, cfg.Bytes = *getName, int(size)
		}
		if *resume {
			// One REQ round per session, now that the stat has had cfg's
			// full retry bound: a quiet server means the session is dead —
			// Tr of silence before its first packet, 4·Tr once data has
			// flowed — and the resume layer asks again from the verified
			// frontier, where a re-ask inside the session would request
			// the whole range again.
			cfg.MaxAttempts = 1
		}
		var out *store.ChunkFile
		opts := udplan.StripeOptions{
			Endpoint:  first,
			Streams:   *streams,
			Batch:     *batch,
			Tier:      tier,
			MTU:       *mtu,
			SocketBuf: *sockbuf,
			Repair:    *resume,
		}
		if *lossTx > 0 {
			opts.MangleTx = func(i int) func(*wire.Packet) params.Mangle {
				return udplan.SeededDrop(*lossTx, int64(1+2*i))
			}
		}
		if *lossRx > 0 {
			opts.MangleRx = func(i int) func(*wire.Packet) params.Mangle {
				return udplan.SeededDrop(*lossRx, int64(2+2*i))
			}
		}
		if *outFile != "" {
			out = createOut(*outFile)
			opts.Sink = out.Sink
		}
		res, err := udplan.PullStriped(*to, cfg, opts)
		if err != nil {
			// A stripe failed and its siblings were cancelled; show what
			// each stripe managed before the fan-out unwound.
			for _, s := range res.Stripes {
				status := "cancelled"
				if s.Err == nil && s.Recv.Completed {
					status = "completed"
				} else if s.Err != nil {
					status = s.Err.Error()
				}
				fmt.Printf("  stripe %d [%d,%d): %d of %d bytes — %s\n",
					s.Stripe.Index, s.Stripe.Offset, s.Stripe.Offset+s.Stripe.Bytes,
					s.Recv.Bytes, s.Stripe.Bytes, status)
			}
			failErr("striped pull", err)
		}
		reqs := 0
		for _, s := range res.Stripes {
			reqs += s.Recv.Reqs - max(s.Resume.Sessions, 1)
		}
		logReasks(reqs)
		for _, s := range res.Stripes {
			repaired := ""
			if s.Resume.Sessions > 1 {
				repaired = fmt.Sprintf(", %d resumed sessions", s.Resume.Sessions-1)
			}
			fmt.Printf("  stripe %d [%d,%d): %d packets (%d dups) in %v%s\n",
				s.Stripe.Index, s.Stripe.Offset, s.Stripe.Offset+s.Stripe.Bytes,
				s.Recv.DataPackets, s.Recv.Duplicates, s.Recv.Elapsed.Round(time.Microsecond), repaired)
		}
		fmt.Printf("pulled %d bytes over %d stripes in %v (%.2f MB/s), checksum %04x\n",
			res.Bytes, len(res.Stripes), res.Elapsed.Round(time.Microsecond),
			res.MBps(), res.Checksum)
		closeOut(out, *outFile)
		if *wantSum != "" && res.Checksum != expectSum {
			fail(exitChecksum, "pulled checksum %04x, expected %04x", res.Checksum, expectSum)
		}
		return
	}

	// A file that cannot be pushed is a usage error, found before anything
	// touches the network.
	var pushed *os.File
	var pushBytes int
	if *pushFile != "" {
		f, err := os.Open(*pushFile)
		if err != nil {
			fail(exitUsage, "%v", err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil || !st.Mode().IsRegular() {
			fail(exitUsage, "%s is not a regular file", *pushFile)
		}
		pushed, pushBytes = f, int(st.Size())
	}

	e := open()
	defer e.Close()
	if *lossTx > 0 {
		e.MangleTx = udplan.SeededDrop(*lossTx, 1)
	}
	if *lossRx > 0 {
		e.MangleRx = udplan.SeededDrop(*lossRx, 2)
	}

	if *pushFile != "" {
		src := newFileSource(pushed, pushBytes, cfg.ChunkSize, func(err error) {
			fail(1, "reading %s: %v", *pushFile, err)
		})
		cfg.Bytes = pushBytes
		cfg.Source = src.Source
		if cfg.Window == 0 {
			cfg.Window = pushWindow(e.ReadBuffer(), *sockbuf, cfg.ChunkSize)
		}
		res, err := udplan.Push(e, cfg)
		if err != nil {
			failErr("push", err)
		}
		fmt.Printf("pushed %d bytes in %v (%.2f MB/s), %d packets (%d retransmitted), checksum %04x\n",
			cfg.Bytes, res.Elapsed.Round(time.Microsecond),
			float64(cfg.Bytes)/res.Elapsed.Seconds()/1e6,
			res.DataPackets, res.Retransmits, src.sum.Sum16())
		return
	}

	cfg.Bytes = *pullBytes
	if *getName != "" {
		// Stat then pull on the same endpoint: the daemon's session answers
		// the stat and stays open for the pull that follows.
		size, err := core.Stat(e, cfg, *getName)
		if err != nil {
			failErr(fmt.Sprintf("stat %q", *getName), err)
		}
		log.Printf("blastcp: remote %q is %d bytes", *getName, size)
		cfg.Name, cfg.Bytes = *getName, int(size)
	}
	// Stream the pull: chunks are checksummed incrementally and discarded
	// (or written through to -o), so pulling 1 GB costs no 1 GB buffer on
	// this side either.
	var out *store.ChunkFile
	cfg.Sink = func(off int, b []byte) {}
	if *outFile != "" {
		out = createOut(*outFile)
		cfg.Sink = out.Sink
	}
	var res core.RecvResult
	var rstats core.ResumeStats
	if *resume {
		// Resumable pull: a server crash/restart mid-transfer costs only the
		// unverified tail (offset REQs from the frontier), and BUSY refusals
		// are honored with backoff instead of burning REQ rounds. A session
		// counts as dead after Tr of silence before its first packet (4·Tr
		// once data has flowed) and is resumed as a new transfer.
		cfg.MaxAttempts = 1 // one REQ round per session, as for stripes
		res, rstats, err = core.PullResume(e, cfg, core.ResumeOptions{})
		if rstats.Sessions > 1 || rstats.BusyWaits > 0 {
			log.Printf("blastcp: recovered over %d sessions (%d chunks re-requested, %d busy waits)",
				rstats.Sessions, rstats.ResumedChunks, rstats.BusyWaits)
		}
	} else {
		res, err = udplan.Pull(e, cfg)
	}
	if err != nil {
		failErr("pull", err)
	}
	logReasks(res.Reqs - max(rstats.Sessions, 1))
	fmt.Printf("pulled %d bytes in %v (%.2f MB/s), %d packets (%d dups), checksum %04x\n",
		res.Bytes, res.Elapsed.Round(time.Microsecond),
		float64(res.Bytes)/res.Elapsed.Seconds()/1e6,
		res.DataPackets, res.Duplicates, res.Checksum)
	closeOut(out, *outFile)
	if *wantSum != "" && res.Checksum != expectSum {
		fail(exitChecksum, "pulled checksum %04x, expected %04x", res.Checksum, expectSum)
	}
}

// logReasks notes on stderr how many pull REQs went unanswered for their
// timer and were sent again (a resumed session's first REQ is not a
// re-send); stdout's result line stays as it is. The timer is Tr: a
// process that pulls once has no earlier round trip to the server's host
// to start a shorter one from (core.Request, udplan.Pull).
func logReasks(n int) {
	if n > 0 {
		log.Printf("blastcp: re-sent the pull REQ %d time(s)", n)
	}
}

// pushWindow derives a push's blast window when -window leaves it to us: a
// blast larger than the receiver's buffering degenerates into
// retransmission (the paper's §3.1.3), so a window's worth of chunks is
// held to a quarter of the receive buffer the kernel granted this socket —
// the peer's is unknowable from here, but daemons are started with the same
// -sockbuf default and clamped by the same kind of limit. Where the grant
// cannot be read back the requested size stands in for it.
func pushWindow(granted, requested, chunk int) int {
	if granted <= 0 {
		granted = requested
	}
	return max(1, granted/4/chunk)
}

// createOut opens the -o file both pull paths deliver into: chunks are
// gathered into large in-order writes (store.ChunkFile), not one WriteAt
// per packet payload.
func createOut(name string) *store.ChunkFile {
	out, err := store.CreateChunkFile(name)
	if err != nil {
		fail(exitUsage, "-o: %v", err)
	}
	return out
}

// closeOut finishes the -o file of a completed pull, if there is one.
func closeOut(out *store.ChunkFile, name string) {
	if out == nil {
		return
	}
	if err := out.Close(); err != nil {
		fail(1, "writing %s: %v", name, err)
	}
	fmt.Printf("wrote %s\n", name)
}
