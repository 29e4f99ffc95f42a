package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"blastlan/internal/core"
)

// daemon is a blastd child process with its log captured.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	mu   sync.Mutex
	log  []string
	done chan struct{} // closed when the log pipe reaches EOF
}

func (d *daemon) lines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.log...)
}

// buildBinaries builds blastd and blastcp from this tree into a temp dir.
func buildBinaries(t *testing.T) (blastd, blastcp string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain to build the binaries with: %v", err)
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "blastlan/cmd/blastd", "blastlan/cmd/blastcp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	return filepath.Join(dir, "blastd"), filepath.Join(dir, "blastcp")
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()
	return startDaemonAt(t, bin, addr, args...)
}

// startDaemonAt starts blastd listening on addr and waits until it serves.
func startDaemonAt(t *testing.T, bin, addr string, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill(); d.cmd.Wait() })
	ready := make(chan struct{})
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log = append(d.log, sc.Text())
			d.mu.Unlock()
			if strings.Contains(sc.Text(), "blastd: serving on") {
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
	case <-d.done:
		t.Fatalf("blastd exited before serving:\n%s", strings.Join(d.lines(), "\n"))
	case <-time.After(10 * time.Second):
		t.Fatal("blastd did not start serving within 10 s")
	}
	return d
}

// tierRE is blastcp's stderr tier line, which names the chunk it sends.
var tierRE = regexp.MustCompile(`blastcp: datapath tier \S+ \(gro (true|false)\), chunk (\d+) \(route MTU \d+\)`)

// tierChunk reads the chunk from blastcp's tier line in stderr.
func tierChunk(t *testing.T, stderr string) int {
	t.Helper()
	m := tierRE.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("blastcp printed no tier line naming its chunk:\n%s", stderr)
	}
	n, _ := strconv.Atoi(m[2])
	return n
}

// unservedPull runs a default-flag blastcp pull toward a loopback port
// nobody serves. With a 1 ms -tr its 100 REQ attempts are spent in about
// 100 ms; it returns the exit code and stderr.
func unservedPull(t *testing.T, blastcp string) (int, string) {
	t.Helper()
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()
	code, stderr, _ := exitCode(t, blastcp, "-to", addr, "-pull", "1000", "-tr", "1ms")
	return code, stderr
}

// defaultChunk is the chunk a default-flag blastcp sends toward loopback,
// read from the tier line of a pull nobody answers.
func defaultChunk(t *testing.T, blastcp string) int {
	t.Helper()
	_, stderr := unservedPull(t, blastcp)
	return tierChunk(t, stderr)
}

var pushedRE = regexp.MustCompile(`(?m)^pushed (\d+) bytes in \S+ \([0-9.]+ MB/s\), (\d+) packets \((\d+) retransmitted\), checksum ([0-9a-f]{4})$`)

// The path a user types, end to end through the shipped binaries: blastcp
// -push at default flags streams files of awkward sizes — a single byte, one
// short of a chunk, exactly a chunk, one over (the chunk the first push's
// tier line names), and 8 MiB + 17 (many runs of the file source, a window
// derived from the socket buffer) — to a blastd
// -out, which must hold the identical bytes; blastcp prints the file's
// checksum and exits 0. A file that is not there is a usage error with its
// taxonomy line, not a fatal log, and so is a retired policy or flag. And
// the daemon's exit summary is keyed by host (six runs from six ephemeral
// ports are one peer), reports the inbox drop count, and arrives within a
// second of SIGTERM.
func TestPushThroughTheBinaries(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	out := t.TempDir()
	d := startDaemon(t, blastd, "-out", out)

	src := t.TempDir()
	// The chunk-edge sizes are filled in from the first push's tier line.
	sizes := []int{1, 0, 0, 0, 8<<20 + 17}
	for i := range sizes {
		size := sizes[i]
		want := core.SeededPayload(int64(size), size, 1000)
		name := filepath.Join(src, fmt.Sprintf("f%d.bin", size))
		if err := os.WriteFile(name, want, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(blastcp, "-to", d.addr, "-push", name)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("push of %d bytes: %v\n%s", size, err, stderr.String())
		}
		m := pushedRE.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("push of %d bytes printed no result line: %q", size, stdout.String())
		}
		if m[1] != fmt.Sprint(size) {
			t.Errorf("push of %d bytes reported %s bytes", size, m[1])
		}
		if sum := fmt.Sprintf("%04x", core.TransferChecksum(want)); m[4] != sum {
			t.Errorf("push of %d bytes printed checksum %s, the file's is %s", size, m[4], sum)
		}
		if m[3] != "0" {
			t.Logf("push of %d bytes retransmitted %s of %s packets", size, m[3], m[2])
		}
		if i == 0 {
			chunk := tierChunk(t, stderr.String())
			sizes[1], sizes[2], sizes[3] = chunk-1, chunk, chunk+1
		}
		// The daemon closes the file as its session completes, just after the
		// final ack the client returned on.
		got := filepath.Join(out, fmt.Sprintf("transfer-%04d.bin", i+1))
		var have []byte
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			if have, _ = os.ReadFile(got); len(have) == size {
				break
			}
		}
		if !bytes.Equal(have, want) {
			t.Errorf("%s holds %d bytes that differ from the %d pushed", got, len(have), size)
		}
	}

	var stderr bytes.Buffer
	cmd := exec.Command(blastcp, "-to", d.addr, "-push", filepath.Join(src, "no-such-file"))
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitUsage {
		t.Errorf("pushing a missing file: %v, want exit code %d", err, exitUsage)
	}
	if !strings.HasPrefix(stderr.String(), "blastcp: "+exitLabel(exitUsage)+": ") {
		t.Errorf("pushing a missing file printed %q, want the %q taxonomy line", stderr.String(), exitLabel(exitUsage))
	}
	// Retired options are usage errors: the bbr policy, -repair (-resume is
	// the one recovery switch) and -gap (the window is the only rate control).
	for _, retired := range [][]string{{"-controller", "bbr", "unknown controller"}, {"-repair", "-repair"}, {"-gap", "1ms", "-gap"}} {
		stderr.Reset()
		args, want := retired[:len(retired)-1], retired[len(retired)-1]
		cmd = exec.Command(blastcp, append([]string{"-to", d.addr, "-pull", "1000"}, args...)...)
		cmd.Stderr = &stderr
		err = cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitUsage || !strings.Contains(stderr.String(), want) {
			t.Errorf("pulling with %v: %v, %q; want exit code %d naming %q", args, err, stderr.String(), exitUsage, want)
		}
	}

	t0 := time.Now()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		t.Fatal("blastd still running 5 s after SIGTERM")
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("idle blastd took %v to exit after SIGTERM", took)
	}
	var summaries, drops int
	for _, line := range d.lines() {
		if strings.Contains(line, "blastd: session summary ") {
			summaries++
			if !strings.Contains(line, fmt.Sprintf("session summary 127.0.0.1: %d transfer(s)", len(sizes))) {
				t.Errorf("summary line not keyed by host: %q", line)
			}
		}
		if strings.Contains(line, "dropped on full session inboxes") {
			drops++
		}
	}
	if summaries != 1 {
		t.Errorf("%d session summary lines for %d pushes from one host, want 1", summaries, len(sizes))
	}
	if drops != 1 {
		t.Errorf("exit summary reports the inbox drop count %d times, want once", drops)
	}
}

// A named pull whose -o cannot be created is a usage error with its one
// taxonomy line, not a fatal log indistinguishable from an internal failure,
// and it stops before the transfer: the daemon serves nothing. The same get
// to a writable path delivers the file, and the daemon says at start-up what
// memory limit it derived from -cache-mb and, per pull under a rate-control
// policy, what the policy did.
func TestGetToAnUnwritablePath(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	dir := t.TempDir()
	want := core.SeededPayload(9, 300_001, 1000)
	if err := os.WriteFile(filepath.Join(dir, "obj.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, blastd, "-serve", dir, "-cache-mb", "64")
	served := func() (n int) {
		for _, line := range d.lines() {
			if strings.Contains(line, "served pull to") {
				n++
			}
		}
		return n
	}

	var stderr bytes.Buffer
	cmd := exec.Command(blastcp, "-to", d.addr, "-get", "obj.bin", "-o", "/nonexistent/dir/x")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitUsage {
		t.Errorf("get to an unwritable path: %v, want exit code %d\n%s", err, exitUsage, stderr.String())
	}
	if n := strings.Count(stderr.String(), "blastcp: "+exitLabel(exitUsage)+": "); n != 1 {
		t.Errorf("get to an unwritable path printed %d usage lines, want 1:\n%s", n, stderr.String())
	}
	if n := served(); n != 0 {
		t.Errorf("daemon served %d pulls for a get that could not open its output", n)
	}

	local := filepath.Join(t.TempDir(), "local.bin")
	if out, err := exec.Command(blastcp, "-to", d.addr, "-get", "obj.bin", "-o", local).CombinedOutput(); err != nil {
		t.Fatalf("get to a writable path: %v\n%s", err, out)
	}
	if got, _ := os.ReadFile(local); !bytes.Equal(got, want) {
		t.Errorf("%s holds %d bytes that differ from the %d served", local, len(got), len(want))
	}
	if !strings.Contains(strings.Join(d.lines(), "\n"), "(cache 64 MiB, read-ahead 8 extents, memory limit 96 MiB)") {
		t.Errorf("daemon did not log its memory limit:\n%s", strings.Join(d.lines(), "\n"))
	}

	// A pull under a rate-control policy appends the policy's trajectory to
	// its served line, after the fields log scrapers read; a pull without
	// one appends none. Every served pull's line ends with its sender's
	// timeouts.
	if out, err := exec.Command(blastcp, "-to", d.addr, "-get", "obj.bin", "-o", local, "-controller", "aimd").CombinedOutput(); err != nil {
		t.Fatalf("get under aimd: %v\n%s", err, out)
	}
	for deadline := time.Now().Add(5 * time.Second); served() < 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	var lines []string
	for _, line := range d.lines() {
		if strings.Contains(line, "served pull to") {
			lines = append(lines, line)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("%d served lines for two pulls:\n%s", len(lines), strings.Join(d.lines(), "\n"))
	}
	if strings.Contains(lines[0], "policy") || !timeoutsRE.MatchString(lines[0]) {
		t.Errorf("a pull without a policy logged one, or no timeouts: %q", lines[0])
	}
	if !servedPolicyRE.MatchString(lines[1]) {
		t.Errorf("served line under aimd %q does not match %v", lines[1], servedPolicyRE)
	}
}

// servedPolicyRE is blastd's served line for a pull under a policy: the
// fields every served line carries, then the policy's trajectory, then the
// sender's timeouts (timeoutsRE), which end every served pull's line.
var (
	servedPolicyRE = regexp.MustCompile(`blastd: served pull to \S+ \d+ bytes in \S+ \([0-9.]+ MB/s\), \d+ packets \(\d+ retransmitted\), policy aimd: \d+ windows, \d+ cuts \(\d+ on timeout\), \d+ holds, final window \d+, \d+ timeouts$`)
	timeoutsRE     = regexp.MustCompile(`\), \d+ packets \(\d+ retransmitted\)(, .*)?, \d+ timeouts$`)
)

// A -resume get whose stat reply is lost still delivers the file: the stat
// keeps the full retry bound and only the pull's sessions ask once each.
// The inbound drop script (seed 2 at 20 %) loses the first datagram blastcp
// receives — the stat reply — and a fifth of the data after it.
func TestResumeGetSurvivesALostStat(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	dir := t.TempDir()
	want := core.SeededPayload(13, 200_000, 1000)
	if err := os.WriteFile(filepath.Join(dir, "obj.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, blastd, "-serve", dir)
	local := filepath.Join(t.TempDir(), "obj.bin")
	out, err := exec.Command(blastcp, "-to", d.addr, "-get", "obj.bin", "-o", local, "-resume",
		"-drop-rx", "0.2", "-strategy", "selective", "-tr", "50ms").CombinedOutput()
	if err != nil {
		t.Fatalf("lossy -resume get: %v\n%s", err, out)
	}
	if got, _ := os.ReadFile(local); !bytes.Equal(got, want) {
		t.Errorf("%s holds %d bytes that differ from the %d served", local, len(got), len(want))
	}
}

var resumedRE = regexp.MustCompile(`(?m)^  stripe \d .*, [1-9]\d* resumed sessions$`)

// A striped get with -resume survives a kill -9 of the daemon: blastd dies
// as the first bytes reach the output file and comes back on the same
// address about 200 ms later. The dead stripes resume as new transfers on
// their own sockets; the file arrives byte for byte, blastcp exits 0 and
// says which stripes it resumed.
func TestGetResumesAcrossKill9(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	dir := t.TempDir()
	const size = 32 << 20
	want := core.SeededPayload(11, size, 1000)
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, blastd, "-serve", dir)

	local := filepath.Join(t.TempDir(), "big.bin")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(blastcp, "-to", d.addr, "-get", "big.bin", "-o", local, "-streams", "4", "-resume")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() { cmd.Process.Kill() })
	for {
		if st, err := os.Stat(local); err == nil && st.Size() > 0 {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("blastcp finished before the daemon was killed: %v\n%s%s", err, &stdout, &stderr)
		case <-time.After(time.Millisecond):
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-d.done
	d.cmd.Wait()
	time.Sleep(200 * time.Millisecond)
	startDaemonAt(t, blastd, d.addr, "-serve", dir)

	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("blastcp: %v\n%s%s", err, &stdout, &stderr)
		}
	case <-time.After(time.Minute):
		t.Fatalf("blastcp still running a minute after the restart\n%s%s", &stdout, &stderr)
	}
	if got, _ := os.ReadFile(local); !bytes.Equal(got, want) {
		t.Errorf("%s holds %d bytes that differ from the %d served", local, len(got), len(want))
	}
	if !resumedRE.Match(stdout.Bytes()) {
		t.Errorf("blastcp reported no resumed stripe:\n%s", &stdout)
	}
}

// A chunk too large for the MTU is a usage error found before any REQ is
// sent, with and without -resume: blastcp exits 2 at once and the daemon
// serves, and rejects, nothing.
func TestChunkOverMTUIsAUsageError(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	d := startDaemon(t, blastd)
	for _, extra := range [][]string{nil, {"-resume"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(blastcp, append([]string{"-to", d.addr, "-pull", "100000", "-chunk", "4000"}, extra...)...)
		cmd.Stderr = &stderr
		t0 := time.Now()
		err := cmd.Run()
		if took := time.Since(t0); took > time.Second {
			t.Errorf("-chunk 4000 %v took %v to fail", extra, took)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitUsage {
			t.Errorf("-chunk 4000 %v: %v, want exit code %d\n%s", extra, err, exitUsage, stderr.String())
		}
		if !strings.Contains(stderr.String(), "blastcp: "+exitLabel(exitUsage)+": ") || !strings.Contains(stderr.String(), "MTU") {
			t.Errorf("-chunk 4000 %v printed %q, want a usage line naming the MTU", extra, stderr.String())
		}
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("blastd still running 10 s after SIGTERM")
	}
	log := strings.Join(d.lines(), "\n")
	if strings.Contains(log, "rejecting") || !strings.Contains(log, "blastd: served 0 transfer(s)") {
		t.Errorf("the daemon saw a request:\n%s", log)
	}
}

// pulledRE is blastcp's result line for an unstriped pull.
var pulledRE = regexp.MustCompile(`(?m)^pulled (\d+) bytes in .*, checksum ([0-9a-f]{4})$`)

// pullSum is the -sum argument for a pull of n bytes of the size-seeded
// stream blastd serves, at the chunk blastcp sends: the stream is seeded
// per chunk, so its checksum depends on the chunk.
func pullSum(n, chunk int) string {
	return fmt.Sprintf("%04x", core.SeededChecksum(int64(n), n, chunk))
}

// SIGINT while a pull is in flight drains blastd: the shutdown line counts
// the active session, the pull completes intact, and blastd exits 0 well
// inside -drain with the transfer in its summary. The pull is stop-and-wait
// so that it lasts long enough to be interrupted.
func TestBlastdDrainsOnSIGINT(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	d := startDaemon(t, blastd, "-drain", "30s")
	const n = 64 << 20
	var stdout bytes.Buffer
	cmd := exec.Command(blastcp, "-to", d.addr, "-proto", "saw", "-pull", fmt.Sprint(n), "-sum", pullSum(n, defaultChunk(t, blastcp)))
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// blastcp logs its datapath tier just before it sends the REQ.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "datapath tier") {
	}
	go io.Copy(io.Discard, stderr)
	time.Sleep(100 * time.Millisecond)
	t0 := time.Now()
	d.cmd.Process.Signal(syscall.SIGINT)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("the interrupted pull: %v", err)
	}
	if m := pulledRE.FindStringSubmatch(stdout.String()); m == nil || m[1] != fmt.Sprint(n) {
		t.Errorf("the interrupted pull printed %q", stdout.String())
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatal("blastd still running 30 s after SIGINT")
	}
	d.cmd.Wait()
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		t.Errorf("blastd exited %d after draining", code)
	}
	if took := time.Since(t0); took > 20*time.Second {
		t.Errorf("blastd took %v to drain one pull", took)
	}
	log := strings.Join(d.lines(), "\n")
	if m := regexp.MustCompile(`shutdown: draining (\d+) active session`).FindStringSubmatch(log); m == nil || m[1] == "0" {
		t.Errorf("the drain line does not count the pull in flight:\n%s", log)
	}
	if !strings.Contains(log, "blastd: served 1 transfer(s)") {
		t.Errorf("the summary does not count the drained pull:\n%s", log)
	}
}

// blastd -sockets 2 shards one port over two SO_REUSEPORT sockets: four
// concurrent pulls complete intact and the summary counts all four.
func TestBlastdSockets(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("SO_REUSEPORT sharding is Linux only")
	}
	blastd, blastcp := buildBinaries(t)
	d := startDaemon(t, blastd, "-sockets", "2")
	const pulls = 4
	chunk := defaultChunk(t, blastcp)
	errs := make(chan error, pulls)
	for i := 0; i < pulls; i++ {
		n := 4<<20 + i*1000
		go func() {
			out, err := exec.Command(blastcp, "-to", d.addr, "-pull", fmt.Sprint(n), "-sum", pullSum(n, chunk)).CombinedOutput()
			if err != nil {
				err = fmt.Errorf("pull of %d bytes: %v\n%s", n, err, out)
			}
			errs <- err
		}()
	}
	for i := 0; i < pulls; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("blastd still running 10 s after SIGTERM")
	}
	if log := strings.Join(d.lines(), "\n"); !strings.Contains(log, "2 socket(s)") ||
		!strings.Contains(log, fmt.Sprintf("blastd: served %d transfer(s)", pulls)) {
		t.Errorf("the summary does not count %d pulls over 2 sockets:\n%s", pulls, log)
	}
}

// exitCode runs blastcp with args and returns its exit code, its stderr and
// how long it ran.
func exitCode(t *testing.T, blastcp string, args ...string) (int, string, time.Duration) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(blastcp, args...)
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	took := time.Since(t0)
	if err == nil {
		return 0, stderr.String(), took
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("blastcp %v: %v", args, err)
	}
	return ee.ExitCode(), stderr.String(), took
}

// A default-flag blastcp fills the path: toward a loopback daemon its tier
// line names the largest chunk the 2048-byte datagram slot carries, 2024
// bytes, where the route MTU can be read (Linux; elsewhere it keeps 1000).
// An explicit -chunk wins, and a seeded pull at an explicit chunk moves the
// same stream, and checksum, as before chunks were derived.
func TestChunkFollowsThePath(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	d := startDaemon(t, blastd)
	const n = 1 << 20
	code, stderr, _ := exitCode(t, blastcp, "-to", d.addr, "-pull", fmt.Sprint(n))
	if code != 0 {
		t.Fatalf("default pull: exit %d\n%s", code, stderr)
	}
	want := 1000
	if runtime.GOOS == "linux" {
		want = 2024
	}
	if chunk := tierChunk(t, stderr); chunk != want {
		t.Errorf("default pull toward loopback sent chunk %d, want %d:\n%s", chunk, want, stderr)
	}
	code, stderr, _ = exitCode(t, blastcp, "-to", d.addr, "-pull", fmt.Sprint(n), "-chunk", "1000", "-sum", pullSum(n, 1000))
	if code != 0 {
		t.Fatalf("pull at -chunk 1000: exit %d\n%s", code, stderr)
	}
	if chunk := tierChunk(t, stderr); chunk != 1000 {
		t.Errorf("pull at -chunk 1000 sent chunk %d", chunk)
	}
}

// Every failure class has its exit code and taxonomy line: 3 when nobody
// answers, 5 when the daemon refuses the request — a chunk its datagrams
// cannot carry, a name it does not hold — and 6 when the checksum differs
// from -sum. A refusal ends the client at once instead of after its REQ
// attempts.
func TestExitCodes(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	check := func(what string, code int, stderr string, want int, mention string) {
		t.Helper()
		if code != want {
			t.Errorf("%s: exit %d, want %d\n%s", what, code, want, stderr)
		}
		if !strings.Contains(stderr, "blastcp: "+exitLabel(want)+": ") || !strings.Contains(stderr, mention) {
			t.Errorf("%s printed %q, want a %q line naming %q", what, stderr, exitLabel(want), mention)
		}
	}

	code, stderr := unservedPull(t, blastcp)
	check("a pull nobody answers", code, stderr, exitGiveUp, "maximum attempts")
	chunk := tierChunk(t, stderr)

	// A daemon whose datagram slot is one byte short of the default chunk's
	// packet (1500 bytes where the chunk is 2024) refuses the REQ rather
	// than truncate every packet.
	mtu := min(1500, chunk+23)
	small := startDaemon(t, blastd, "-mtu", fmt.Sprint(mtu))
	code, stderr, took := exitCode(t, blastcp, "-to", small.addr, "-pull", "100000")
	check(fmt.Sprintf("a default pull from a -mtu %d daemon", mtu), code, stderr, exitRefused, "MTU")
	if took > 2*time.Second {
		t.Errorf("the refused pull took %v", took)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj.bin"), core.SeededPayload(5, 10_000, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, blastd, "-serve", dir)
	code, stderr, took = exitCode(t, blastcp, "-to", d.addr, "-get", "missing.bin")
	check("a get of a missing name", code, stderr, exitRefused, `no such object "missing.bin"`)
	if took > 2*time.Second {
		t.Errorf("the refused get took %v", took)
	}

	const n = 100_000
	wrong := core.SeededChecksum(n, n, 1000) ^ 0xffff
	code, stderr, _ = exitCode(t, blastcp, "-to", d.addr, "-pull", fmt.Sprint(n), "-chunk", "1000", "-sum", fmt.Sprintf("%04x", wrong))
	check("a pull with the wrong -sum", code, stderr, exitChecksum, fmt.Sprintf("expected %04x", wrong))
}

// A striped get checks its chunk against the datagram slot before the stat:
// -chunk 4000 fails with exit 2 and no traffic, so the daemon holds no
// session for it when SIGTERM comes.
func TestStripedGetChecksChunkBeforeStat(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj.bin"), core.SeededPayload(7, 100_000, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, blastd, "-serve", dir)
	code, stderr, _ := exitCode(t, blastcp, "-to", d.addr, "-get", "obj.bin", "-streams", "2", "-chunk", "4000")
	if code != exitUsage || !strings.Contains(stderr, "MTU") {
		t.Errorf("-chunk 4000 -streams 2 -get: exit %d, want %d with a line naming the MTU\n%s", code, exitUsage, stderr)
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("blastd still running 10 s after SIGTERM")
	}
	if log := strings.Join(d.lines(), "\n"); !strings.Contains(log, "shutdown: draining 0 active session(s)") {
		t.Errorf("the daemon held a session for the refused get:\n%s", log)
	}
}
