package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"blastlan/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite ci/golden from this tree's experiments")

// goldenDir holds `lanbench -quick -format csv -experiment E` for every
// experiment but udp-loopback, one file per experiment.
var goldenDir = filepath.Join("..", "..", "ci", "golden")

// TestGoldenCSV holds every deterministic experiment's quick csv table to
// the copy committed under ci/golden, byte for byte: a change that moves a
// table fails here by experiment name. Only -update rewrites the files
//
//	go test ./cmd/lanbench -run TestGoldenCSV -update
//
// and each rewrite says why in CHANGES.md. udp-loopback times real sockets,
// so it has no golden.
func TestGoldenCSV(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens were captured on amd64; on %s Go may fuse a multiply and an add and move a float column's last digit", runtime.GOARCH)
	}
	kept := map[string]bool{}
	for _, e := range experiments.All() {
		if e.ID == "udp-loopback" {
			continue
		}
		kept[e.ID+".csv"] = true
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(experiments.Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			got, path := csvBlock(res), filepath.Join(goldenDir, e.ID+".csv")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (write it with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s moved:\n--- golden\n%s--- this tree\n%s", path, want, got)
			}
		})
	}
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !kept[f.Name()] && strings.HasSuffix(f.Name(), ".csv") {
			t.Errorf("%s names no experiment", filepath.Join(goldenDir, f.Name()))
		}
	}
}
