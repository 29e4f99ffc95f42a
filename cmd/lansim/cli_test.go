package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	elapsedRE  = regexp.MustCompile(`(?m)^elapsed  : \d\S*s$`)
	timelineRE = regexp.MustCompile(`(?m)^src cpu .*DATA.*\n^net wire .*\n^dst cpu .*DATA`)
	headerRE   = regexp.MustCompile(`(?m)^\s+full-no-nak\s+full-nak\s+go-back-n\s+selective\s*$`)
	// One intensity row of the sweep: its label, then four cells of a mean
	// time and a rate.
	sweepRowRE = regexp.MustCompile(`(?m)^\d+\.\d%(?:\s+\d+\.\d\d \(\s*\d+\)){4}\s*$`)
)

// The simulator as a user types it, through the binary built from this
// tree: a bad -proto, -strategy or -cost is a usage error naming the value;
// a stop-and-wait transfer prints its elapsed time and an activity timeline;
// and the adversary sweep charts every intensity for all four blast
// strategies.
func TestLansimThroughTheBinary(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain to build the binary with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "lansim")
	if out, err := exec.Command("go", "build", "-o", bin, "blastlan/cmd/lansim").CombinedOutput(); err != nil {
		t.Fatalf("building lansim: %v\n%s", err, out)
	}
	lansim := func(args ...string) (stdout, stderr string, code int) {
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("lansim %v: %v", args, err)
		}
		return out.String(), errb.String(), code
	}

	for _, args := range [][]string{{"-proto", "pigeon"}, {"-strategy", "hopeful"}, {"-cost", "abacus"}} {
		if _, stderr, code := lansim(args...); code != 2 || !strings.Contains(stderr, `"`+args[1]+`"`) {
			t.Errorf("lansim %v: exit %d, stderr %q; want exit 2 naming %q", args, code, stderr, args[1])
		}
	}

	stdout, stderr, code := lansim("-bytes", "3072", "-proto", "saw", "-timeline")
	if code != 0 {
		t.Fatalf("a timeline run exited %d: %s", code, stderr)
	}
	if !elapsedRE.MatchString(stdout) || !timelineRE.MatchString(stdout) {
		t.Errorf("a timeline run printed no elapsed line or no timeline of data packets:\n%s", stdout)
	}

	stdout, stderr, code = lansim("-adversary", "-trials", "2", "-bytes", "8192")
	if code != 0 {
		t.Fatalf("the adversary sweep exited %d: %s", code, stderr)
	}
	if !headerRE.MatchString(stdout) {
		t.Errorf("the sweep does not head all four strategy columns:\n%s", stdout)
	}
	if rows := sweepRowRE.FindAllString(stdout, -1); len(rows) != 6 {
		t.Errorf("the sweep has %d rows of four strategy cells, want 6:\n%s", len(rows), stdout)
	}
}
