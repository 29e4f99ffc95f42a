package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/udplan"
)

// cli is a set-up of a two-process workload: a blastd daemon this process
// spawned, and blastcp run once per transfer, both the shipped binaries.
type cli struct {
	r      *run
	sp     *spec
	put    bool
	addr   string
	daemon *exec.Cmd
	logs   chan daemonLine // one per transfer the daemon logged
	logEnd chan struct{}
	names  []string // served files, fetched round-robin
	next   int
	data   string // dataset directory (served files, or the file pushed)
	out    string // where outputs land: blastcp -o files, or the daemon's -out
	tracer *tracer
	c      cliCounters // one client drives a CLI workload, so no lock

	clientRSS int64 // largest blastcp resident set so far, kB
}

// cliCounters is what the CLI layer reports about itself.
type cliCounters struct {
	n           int
	bytes       int64
	wall        time.Duration // process exec to exit
	reported    time.Duration // the elapsed time blastcp printed
	served      time.Duration // the elapsed time blastd logged
	packets     int64         // data packets the sending side counted
	retransmits int64
}

// daemonLine is one per-transfer line of blastd's log.
type daemonLine struct {
	at          time.Time
	elapsed     time.Duration
	packets     int64
	retransmits int64
}

var (
	// blastd: served pull to 127.0.0.1:1: 8388608 bytes in 52.1ms (161.00 MB/s), 8389 packets (0 retransmitted)
	daemonRE = regexp.MustCompile(`blastd: (?:served pull to|received push from) \S+ \d+ bytes in (\S+) \([0-9.]+ MB/s\), (\d+) packets \((\d+) retransmitted\)`)
	// pulled 8388608 bytes in 52.1ms (161.00 MB/s), 8389 packets (0 dups), checksum a2d6
	// pushed 16777216 bytes in 69ms (243.00 MB/s), 16778 packets (0 retransmitted), checksum 1a2b
	clientRE = regexp.MustCompile(`(?m)^(?:pulled|pushed) (\d+) bytes in (\S+) \([0-9.]+ MB/s\), (\d+) packets \((\d+) (?:dups|retransmitted)\), checksum ([0-9a-f]{4})$`)
)

func (in *cli) setTracer(t *tracer) { in.tracer = t }

func openCLI(r *run) (instance, error) {
	sp := r.sp
	in := &cli{r: r, sp: sp, put: sp.files == 0, data: filepath.Join(r.dir, "data"), out: filepath.Join(r.dir, "out")}
	for _, d := range []string{in.data, in.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	r.note("workload %s seed %d flags %v", sp.name, r.seed, sp.cliFlags)
	files, size := sp.files, sp.minBytes
	if in.put {
		files, size = 1, sp.objBytes
	}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%04d.bin", i)
		payload := core.SeededPayload(objectSeed(r.seed, i), size, 1000)
		if err := os.WriteFile(filepath.Join(in.data, name), payload, 0o644); err != nil {
			return nil, err
		}
		r.note("%s %d %04x", name, size, core.TransferChecksum(payload))
		in.names = append(in.names, name)
	}

	port, err := freeUDPPort()
	if err != nil {
		return nil, err
	}
	in.addr = fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-listen", in.addr, "-serve", in.data}
	if in.put {
		args = []string{"-listen", in.addr, "-out", in.out}
	}
	if err := in.startDaemon(args); err != nil {
		return nil, err
	}
	if !in.put {
		// Fill the daemon's cache so the timed phase is all in one regime:
		// 128 x 2 MB is the default 256 MiB budget, and the round-robin goes
		// on from file 128, so every timed get misses and evicts.
		fill := min(len(in.names), int(256*mb/int64(size)))
		for i := 0; i < fill; i++ {
			if err := warmPull(in.addr, in.names[i]); err != nil {
				in.close()
				return nil, fmt.Errorf("filling the daemon's cache with %s: %w", in.names[i], err)
			}
			if _, err := in.awaitLog(); err != nil {
				in.close()
				return nil, err
			}
		}
		in.next = fill
	}
	return in, nil
}

func freeUDPPort() (int, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return conn.LocalAddr().(*net.UDPAddr).Port, nil
}

// startDaemon execs blastd and waits until it says it is serving.
func (in *cli) startDaemon(args []string) error {
	in.daemon = exec.Command(filepath.Join(in.r.bin, "blastd"), args...)
	stderr, err := in.daemon.StderrPipe()
	if err != nil {
		return err
	}
	if err := in.daemon.Start(); err != nil {
		return fmt.Errorf("starting blastd: %w", err)
	}
	ready := make(chan bool, 1) // true once the daemon says it is serving
	// Buffered for the cache fill plus a run's transfers: the reader must
	// never block on a consumer that has stopped listening.
	in.logs = make(chan daemonLine, 4096)
	in.logEnd = make(chan struct{})
	go func() {
		defer close(in.logEnd)
		sc := bufio.NewScanner(stderr)
		isReady := false
		for sc.Scan() {
			line := sc.Text()
			if !isReady && strings.Contains(line, "blastd: serving on") {
				isReady = true
				ready <- true
			}
			if m := daemonRE.FindStringSubmatch(line); m != nil {
				d, _ := time.ParseDuration(m[1])
				pk, _ := strconv.ParseInt(m[2], 10, 64)
				rt, _ := strconv.ParseInt(m[3], 10, 64)
				select {
				case in.logs <- daemonLine{time.Now(), d, pk, rt}:
				default:
				}
			}
		}
		if !isReady {
			ready <- false
		}
	}()
	select {
	case ok := <-ready:
		if !ok {
			in.daemon.Wait()
			return errors.New("blastd exited before serving")
		}
	case <-time.After(10 * time.Second):
		in.daemon.Process.Kill()
		in.daemon.Wait()
		return errors.New("blastd did not start serving within 10 s")
	}
	return nil
}

// drainLogs discards transfer lines nobody collected: a transfer that failed
// on the client after the daemon had logged it must not lend its line to the
// next one.
func (in *cli) drainLogs() {
	for {
		select {
		case <-in.logs:
		default:
			return
		}
	}
}

// awaitLog returns the daemon's log line for the transfer that just ended.
func (in *cli) awaitLog() (daemonLine, error) {
	select {
	case l := <-in.logs:
		return l, nil
	case <-time.After(2 * time.Second):
		return daemonLine{}, errors.New("blastd logged no transfer line within 2 s")
	}
}

func (in *cli) close() error {
	in.daemon.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-in.logEnd // the pipe must drain before Wait closes it
		done <- in.daemon.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		in.daemon.Process.Kill()
		err = <-done
	}
	os.RemoveAll(in.r.dir)
	return err
}

// warmPull fetches one named file in-process and discards it.
func warmPull(addr, name string) error {
	e, err := udplan.Dial(addr)
	if err != nil {
		return err
	}
	defer e.Close()
	e.SetSocketBuffers(4 * mb)
	e.SetBatch(32)
	cfg := core.Config{
		TransferID: 1, ChunkSize: 1000, Protocol: core.Blast, Strategy: core.GoBackN, Window: 128,
		RetransTimeout: 200 * time.Millisecond, MaxAttempts: 50, Linger: 50 * time.Millisecond,
		ReceiverIdle: 10 * time.Second, Sink: func(int, []byte) {},
	}
	size, err := core.Stat(e, cfg, name)
	if err != nil {
		return err
	}
	cfg.Name, cfg.Bytes = name, int(size)
	_, err = udplan.Pull(e, cfg)
	return err
}

// cpResult is what one blastcp process did, by its own account.
type cpResult struct {
	wall     time.Duration // exec to exit, as this process saw it
	bytes    int64
	reported time.Duration // the elapsed time it printed
	packets  int64
	second   int64 // dups of a pull, retransmits of a push
}

// blastcp runs one client process to completion and parses what it printed.
func (in *cli) blastcp(args ...string) (cpResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(in.r.bin, "blastcp"), append([]string{"-to", in.addr}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	res := cpResult{wall: time.Since(t0)}
	if cmd.ProcessState != nil { // nil when the binary could not be started
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			in.clientRSS = max(in.clientRSS, ru.Maxrss)
		}
	}
	if err != nil {
		return res, fmt.Errorf("blastcp %v: %w: %s", args, err, lastLine(stderr.String()))
	}
	m := clientRE.FindStringSubmatch(stdout.String())
	if m == nil {
		return res, fmt.Errorf("blastcp %v printed no result line: %q", args, stdout.String())
	}
	res.bytes, _ = strconv.ParseInt(m[1], 10, 64)
	res.reported, _ = time.ParseDuration(m[2])
	res.packets, _ = strconv.ParseInt(m[3], 10, 64)
	res.second, _ = strconv.ParseInt(m[4], 10, 64)
	return res, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func (in *cli) transfer(_, _ int, tt *transferTrace) (int64, time.Duration, error) {
	var name, got string
	var args []string
	if in.put {
		name = in.names[0]
		args = append([]string{"-push", filepath.Join(in.data, name)}, in.sp.cliFlags...)
	} else {
		name = in.names[in.next%len(in.names)]
		in.next++
		got = filepath.Join(in.out, name)
		args = append([]string{"-get", name, "-o", got}, in.sp.cliFlags...)
	}
	in.drainLogs()
	start := time.Now()
	cp, err := in.blastcp(args...)
	wall := cp.wall
	if err != nil {
		return 0, wall, err
	}

	// Outside the op timer: the daemon's log line, then the byte compare.
	served, err := in.awaitLog()
	if err != nil {
		return 0, wall, err
	}
	if in.put {
		if got, err = in.pushedFile(); err != nil {
			return 0, wall, err
		}
	}
	v0 := time.Now()
	size, err := sameFile(filepath.Join(in.data, name), got)
	os.Remove(got)
	if err != nil {
		return 0, wall, err
	}
	if cp.bytes != size {
		return 0, wall, fmt.Errorf("blastcp reported %d bytes, %s holds %d", cp.bytes, name, size)
	}

	sent, retx := served.packets, served.retransmits // a pull's sender is the daemon
	if in.put {
		sent, retx = cp.packets, cp.second
	}
	in.c.n++
	in.c.bytes += size
	in.c.wall += wall
	in.c.reported += cp.reported
	in.c.served += served.elapsed
	in.c.packets += sent
	in.c.retransmits += retx
	if tt != nil {
		end := start.Add(wall)
		tt.t.emit(spanExec, spanTransfer, tt.id, 0, start, end, wall, 1)
		tt.t.emit(spanReported, spanExec, tt.id, 0, end.Add(-cp.reported), end, cp.reported, 1)
		tt.t.emit(spanServed, spanReported, tt.id, 0, served.at.Add(-served.elapsed), served.at, served.elapsed, 1)
		tt.t.emit(spanVerify, "", tt.id, 0, v0, time.Now(), time.Since(v0), 1)
	}
	return size, wall, nil
}

// pushedFile finds the transfer-NNNN.bin the daemon wrote for the push that
// just finished; every verified file is removed, so it is the only one.
func (in *cli) pushedFile() (string, error) {
	ents, err := os.ReadDir(in.out)
	if err != nil {
		return "", err
	}
	if len(ents) != 1 {
		return "", fmt.Errorf("daemon -out directory holds %d files after one push", len(ents))
	}
	return filepath.Join(in.out, ents[0].Name()), nil
}

// sameFile compares two files byte for byte and returns their size.
func sameFile(want, got string) (int64, error) {
	a, err := os.Open(want)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := os.Open(got)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	const block = 1 << 20
	ba, bb := make([]byte, block), make([]byte, block)
	var n int64
	for {
		na, ea := io.ReadFull(a, ba)
		nb, eb := io.ReadFull(b, bb)
		if na != nb || !bytes.Equal(ba[:na], bb[:nb]) {
			return n, fmt.Errorf("%s differs from %s within %d bytes of offset %d", got, want, block, n)
		}
		n += int64(na)
		if ea != nil || eb != nil {
			if (ea == io.EOF || ea == io.ErrUnexpectedEOF) && (eb == io.EOF || eb == io.ErrUnexpectedEOF) {
				return n, nil
			}
			return n, errors.Join(ea, eb)
		}
	}
}

// layers reports the cmd layer's metrics since the last call. On cli_put's
// traced pass it also records default-flag pushes, the storm the timed loop
// steers around.
func (in *cli) layers() map[string]float64 {
	c := in.c
	in.c = cliCounters{}
	m := map[string]float64{"cmd.blastd_rss_mb": float64(procStatusKB(in.daemon.Process.Pid, "VmHWM")) * 1024 / 1e6}
	if c.n > 0 {
		n := float64(c.n)
		m["cmd.blastcp_overhead_ms"] = ms(c.wall-c.reported) / n
		m["cmd.blastcp_reported_mbps"] = float64(c.bytes) / 1e6 / c.reported.Seconds()
		m["cmd.blastd_served_ms"] = ms(c.served) / n
		if c.packets > 0 {
			m["cmd.retx_ratio"] = float64(c.retransmits) / float64(c.packets)
		}
	}
	if in.put && in.tracer != nil {
		// Three default-flag pushes, summed: one alone reads anywhere
		// between a third and three times the next.
		var sum cpResult
		for k := 0; k < 3; k++ {
			in.drainLogs()
			cp, err := in.blastcp("-push", filepath.Join(in.data, in.names[0]))
			if err != nil {
				break
			}
			in.awaitLog()
			if got, ferr := in.pushedFile(); ferr == nil {
				os.Remove(got)
			}
			sum.bytes += cp.bytes
			sum.wall += cp.wall
			sum.packets += cp.packets
			sum.second += cp.second
		}
		if sum.packets > 0 {
			m["cmd.push_default_mbps"] = float64(sum.bytes) / 1e6 / sum.wall.Seconds()
			m["cmd.push_default_retx_ratio"] = float64(sum.second) / float64(sum.packets)
		}
	}
	return m
}
