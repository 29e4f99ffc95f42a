package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

var pushedRE = regexp.MustCompile(`(?m)^pushed (\d+) bytes in \S+ \([0-9.]+ MB/s\), (\d+) packets \((\d+) retransmitted\), checksum ([0-9a-f]{4})$`)

// The path a user types, end to end through the shipped binaries: blastcp
// -push at default flags streams files of awkward sizes — a single byte, one
// short of a chunk, exactly a chunk, one over, and 8 MiB + 17 (many runs of
// the file source, a window derived from the socket buffer) — to a blastd
// -out, which must hold the identical bytes; blastcp prints the file's
// checksum and exits 0. A file that is not there is a usage error with its
// taxonomy line, not a fatal log. And the daemon's exit summary is keyed by
// host (six runs from six ephemeral ports are one peer), reports the inbox
// drop count, and arrives within a second of SIGTERM.
func TestPushThroughTheBinaries(t *testing.T) {
	blastd, blastcp := buildBinaries(t)
	out := t.TempDir()
	d := startDaemon(t, blastd, "-out", out)

	src := t.TempDir()
	sizes := []int{1, 999, 1000, 1001, 8<<20 + 17}
	for i, size := range sizes {
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
