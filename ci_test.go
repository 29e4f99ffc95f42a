package blastlan_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
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

// uncalledKept names the declarations that only tests call and that stay
// anyway, each with its reason. An entry is "<package dir>.<name>" or
// "<package dir>.<type>.<method>".
var uncalledKept = map[string]string{
	"internal/analytic.ExpectedTimeFullNak":      "§3.2.2 closed form: " + reference,
	"internal/analytic.OptimalWindow":            "§3.1.3 window advice in closed form: " + reference,
	"internal/analytic.StdDevMultiblast":         "§3.1.3 multiblast closed form: " + reference,
	"internal/analytic.TimeMultiblast":           "§3.1.3 multiblast closed form: " + reference,
	"internal/analytic.TimeMultiblastOverlapped": "§3.1.3 multiblast closed form: " + reference,
	"internal/disk.Geometry.FileReadTime":        "closed-form disk read time: " + reference,
	"internal/mc.CombinedLoss":                   "loss composition formula: " + reference,
	"internal/wire.FrameBytes":                   "on-wire frame size formula: " + reference,
	"internal/stats.RelErr":                      "the tolerance the cross-validation tests compare with",
	"internal/params.CrashTrigger.Served":        "tests read how many chunks a crash schedule let through",
	"internal/session.Board.Bytes":               "tests read a relay board's state through it",
	"internal/session.Board.Complete":            "tests read a relay board's state through it",
	"internal/session.Board.Err":                 "tests read a relay board's state through it",
	"internal/simrun.Scenario.RunSim":            "two-party scenario runner: the conformance suites run one Scenario on every substrate",
	"internal/simrun.Scenario.RunUDP":            "two-party scenario runner: the conformance suites run one Scenario on every substrate",
	"internal/simrun.Scenario.RunVKernel":        "two-party scenario runner: the conformance suites run one Scenario on every substrate",
	"internal/simrun.Scenario.Stripes":           "two-party scenario runner: the conformance suites run one Scenario on every substrate",
	"internal/sim.MediumFIFO":                    "the zero MediumMode, the default medium: named so the mode reads at its uses",
}

// reference is the reason shared by the closed forms that stay.
const reference = "a reference implementation that tests hold production results to"

// TestEveryDeclarationHasANonTestCaller type-checks every non-test package
// of the module and of benchmark/ and fails on each package-level
// declaration or method that no non-test code references: code that only
// its own tests call is not part of the program. benchmark/ counts as a
// caller, but its own declarations are not checked. The root facade's
// exported names are the public API and are exempt, and so is a method that
// a named type needs to implement an interface the program uses (a
// parameter, variable, field or expression of that interface type, error,
// or fmt's Stringer, Formatter and GoStringer). Identifiers in files
// that the build constraints leave out count as uses by name.
// uncalledKept lists the rest that stays.
func TestEveryDeclarationHasANonTestCaller(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain to type-check the module against: %v", err)
	}
	sc := newDeclScan()
	if err := sc.load("."); err != nil {
		t.Fatal(err)
	}
	for _, key := range sc.uncalled() {
		if _, ok := uncalledKept[key]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or give uncalledKept its reason", key)
		}
	}
	for key := range uncalledKept {
		if !sc.declared[key] {
			t.Errorf("uncalledKept: %s names no declaration", key)
		} else if !sc.unused[key] {
			t.Errorf("uncalledKept: %s now has a caller outside tests", key)
		}
	}
}

// declScan is one type-checked view of the module's non-test code.
type declScan struct {
	fset     *token.FileSet
	std      types.ImporterFrom
	dirs     map[string]string         // import path → directory
	pkgs     map[string]*types.Package // import path → checked package
	infos    []*types.Info
	decls    []scanDecl
	byObj    map[types.Object]*scanDecl
	recv     map[*ast.Ident]bool // a method's receiver type names its type, but does not use it
	used     map[types.Object]bool
	ifaces   map[*types.Interface]bool  // the interfaces the program uses
	leftOut  map[string]map[string]bool // package dir → identifiers of files the build leaves out
	declared map[string]bool            // every checked declaration's key
	unused   map[string]bool            // keys of the declarations nothing calls
}

type scanDecl struct {
	key      string
	obj      types.Object
	pos, end token.Pos
	dir      string
}

func newDeclScan() *declScan {
	fset := token.NewFileSet()
	return &declScan{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:     map[string]string{},
		pkgs:     map[string]*types.Package{},
		byObj:    map[types.Object]*scanDecl{},
		recv:     map[*ast.Ident]bool{},
		used:     map[types.Object]bool{},
		ifaces:   map[*types.Interface]bool{},
		leftOut:  map[string]map[string]bool{},
		declared: map[string]bool{},
		unused:   map[string]bool{},
	}
}

// Import resolves the module's packages from source, checking each once,
// and the standard library through the source importer.
func (sc *declScan) Import(path string) (*types.Package, error) {
	return sc.ImportFrom(path, "", 0)
}

func (sc *declScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := sc.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	if d, ok := sc.dirs[path]; ok {
		return sc.check(path, d)
	}
	return sc.std.ImportFrom(path, dir, mode)
}

// load finds every package under root and checks it.
func (sc *declScan) load(root string) error {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err == nil {
			sc.dirs[filepath.ToSlash(filepath.Join("blastlan", path))] = path
		} else if !errors.As(err, new(*build.NoGoError)) {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	paths := make([]string, 0, len(sc.dirs))
	for p := range sc.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := sc.Import(p); err != nil {
			return err
		}
	}
	return nil
}

func (sc *declScan) check(path, dir string) (*types.Package, error) {
	sc.pkgs[path] = nil
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	left := map[string]bool{}
	for _, name := range bp.IgnoredGoFiles {
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				left[id.Name] = true
			}
			return true
		})
	}
	sc.leftOut[dir] = left
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: sc}
	pkg, err := conf.Check(path, sc.fset, files, info)
	if err != nil {
		return nil, err
	}
	sc.pkgs[path] = pkg
	sc.infos = append(sc.infos, info)
	if dir == "benchmark" || strings.HasPrefix(dir, "benchmark"+string(filepath.Separator)) {
		return pkg, nil
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil && (name == "main" || name == "init") || name == "_" {
					continue
				}
				if d.Recv == nil && dir == "." && ast.IsExported(name) {
					continue
				}
				key := dir + "." + name
				if d.Recv != nil {
					key = dir + "." + recvName(d.Recv.List[0].Type) + "." + name
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							sc.recv[id] = true
						}
						return true
					})
				}
				sc.add(key, info.Defs[d.Name], d.Pos(), d.End(), dir)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if dir == "." && ast.IsExported(s.Name.Name) {
							continue
						}
						sc.add(dir+"."+s.Name.Name, info.Defs[s.Name], s.Pos(), s.End(), dir)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name == "_" || dir == "." && ast.IsExported(n.Name) {
								continue
							}
							sc.add(dir+"."+n.Name, info.Defs[n], s.Pos(), s.End(), dir)
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

func (sc *declScan) add(key string, obj types.Object, pos, end token.Pos, dir string) {
	sc.decls = append(sc.decls, scanDecl{key: key, obj: obj, pos: pos, end: end, dir: dir})
	sc.declared[key] = true
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addIface collects t when it is an interface with methods.
func (sc *declScan) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		sc.ifaces[it] = true
	}
}

// uncalled returns the sorted keys of the declarations nothing references
// outside their own body.
func (sc *declScan) uncalled() []string {
	for i := range sc.decls {
		sc.byObj[sc.decls[i].obj] = &sc.decls[i]
	}
	for _, info := range sc.infos {
		for id, obj := range info.Uses {
			obj = origin(obj)
			if d := sc.byObj[obj]; sc.recv[id] || d != nil && id.Pos() >= d.pos && id.Pos() < d.end {
				continue // a receiver, or a declaration's use of itself
			}
			sc.used[obj] = true
			switch o := obj.(type) {
			case *types.Var:
				sc.addIface(o.Type())
			case *types.TypeName:
				sc.addIface(o.Type())
			case *types.Func:
				sig := o.Type().(*types.Signature)
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						sc.addIface(tup.At(i).Type())
					}
				}
			}
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				sc.addIface(tv.Type)
			}
		}
	}
	sc.addIface(types.Universe.Lookup("error").Type())
	if fmtPkg, err := sc.std.ImportFrom("fmt", "", 0); err == nil {
		for _, name := range []string{"Stringer", "Formatter", "GoStringer"} {
			sc.addIface(fmtPkg.Scope().Lookup(name).Type())
		}
	}
	for _, d := range sc.decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for it := range sc.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), it.Method(i).Name())
				if m != nil {
					sc.used[origin(m)] = true
				}
			}
		}
	}
	var out []string
	for _, d := range sc.decls {
		if sc.used[d.obj] || sc.leftOut[d.dir][d.obj.Name()] {
			continue
		}
		sc.unused[d.key] = true
		out = append(out, d.key)
	}
	sort.Strings(out)
	return out
}
