package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"blastlan/internal/experiments"
)

// The lanbench command line, black box: the binary is built once from this
// tree and driven through its listing, its flag validation and one quick
// experiment.
func TestCLI(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain to build the binary with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "lanbench")
	if out, err := exec.Command("go", "build", "-o", bin, "blastlan/cmd/lanbench").CombinedOutput(); err != nil {
		t.Fatalf("building lanbench: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &errb
		out, err := cmd.Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("lanbench %v: %v", args, err)
		}
		return string(out), errb.String(), code
	}

	out, _, code := run("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, e := range experiments.All() {
		if !listed[e.ID] {
			t.Errorf("-list does not print %q", e.ID)
		}
	}

	for _, c := range []struct {
		args         []string
		code         int
		prefix, diag string // of stdout; in stderr
	}{
		{[]string{"-format", "xml"}, 2, "", "xml"},
		{[]string{"-experiment", "nosuch"}, 2, "", "nosuch"},
		{[]string{"-controller", "nosuch"}, 2, "", "aimd, autotune"},
		{[]string{"-quick", "-format", "csv", "-experiment", "table2"}, 0, "# table2", ""},
	} {
		out, stderr, code := run(c.args...)
		if code != c.code || !strings.HasPrefix(out, c.prefix) || !strings.Contains(stderr, c.diag) {
			t.Errorf("lanbench %v: exit %d (want %d), stdout %.40q (want prefix %q), stderr %q (want %q in it)",
				c.args, code, c.code, out, c.prefix, stderr, c.diag)
		}
	}
}
