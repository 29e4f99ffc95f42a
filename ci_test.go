package blastlan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	runSel  = regexp.MustCompile(`-run[ =](?:'([^']*)'|"([^"$]*)")`)
	varSel  = regexp.MustCompile(`\bsel='([^']*)'`)
	pkgArg  = regexp.MustCompile(`(?:^|\s)(\./[\w./-]*)`)
	stepTop = regexp.MustCompile(`^\s*- (?:name|uses):`)
)

// TestCISelectorsNameTests reads .github/workflows/ci.yml and fails when an
// alternative of a `go test -run` selector (or of a step's `sel='…'`, run
// through a compiled test binary) names no test, benchmark or fuzz target
// in the packages its step tests. A renamed test would otherwise drop out
// of the race and tier steps without a sound: -run that matches nothing
// passes.
func TestCISelectorsNameTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var steps [][]string
	for _, line := range strings.Split(string(raw), "\n") {
		if stepTop.MatchString(line) || steps == nil {
			steps = append(steps, nil)
		}
		steps[len(steps)-1] = append(steps[len(steps)-1], line)
	}
	tests := map[string][]string{} // package dir → its test function names
	checked := 0
	for _, step := range steps {
		var stepPkgs []string
		for _, line := range step {
			if strings.Contains(line, "go test") {
				stepPkgs = append(stepPkgs, pkgs(line)...)
			}
		}
		for _, line := range step {
			var sel string
			var in []string
			if m := runSel.FindStringSubmatch(line); m != nil {
				sel, in = m[1]+m[2], pkgs(line)
			} else if m := varSel.FindStringSubmatch(line); m != nil {
				sel, in = m[1], stepPkgs
			} else {
				continue
			}
			if sel == "^$" {
				continue
			}
			if len(in) == 0 {
				t.Errorf("ci.yml: selector %q tests no package:\n%s", sel, line)
			}
			for _, alt := range strings.Split(sel, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: selector alternative %q: %v", alt, err)
					continue
				}
				found := false
				for _, dir := range in {
					if _, ok := tests[dir]; !ok {
						tests[dir] = testNames(t, dir)
					}
					for _, name := range tests[dir] {
						found = found || re.MatchString(name)
					}
				}
				if !found {
					t.Errorf("ci.yml: -run alternative %q names no test in %v", alt, in)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml has no -run selector: the parser no longer reads it")
	}
}

// pkgs returns the ./-relative package directories a command line names.
func pkgs(line string) []string {
	var out []string
	for _, m := range pkgArg.FindAllStringSubmatch(line, -1) {
		out = append(out, filepath.Clean(m[1]))
	}
	return out
}

// testNames lists the top-level Test, Benchmark, Fuzz and Example functions
// of dir's _test.go files.
func testNames(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
