package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nova/internal/cap"
)

// repoRoot locates the repository root (the directory with go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	return root
}

// TestRepoInvariants is the tier-1 gate: the whole repository must pass
// every analyzer of the default suite. There is no baseline: a finding
// fails `go test ./...`, not just the optional nova-vet run, and gets
// fixed.
func TestRepoInvariants(t *testing.T) {
	diags, err := RunSuite(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("invariant violation: %s", d)
	}
}

// TestLoaderCoversRepo sanity-checks the source loader: every package
// the analyzers depend on must load and type-check.
func TestLoaderCoversRepo(t *testing.T) {
	prog, err := LoadRepo(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(append([]string{}, SimCriticalPackages...), EntryPointPackages...) {
		if prog.Package(path) == nil {
			t.Errorf("suite package %s not loaded", path)
		}
	}
	if len(prog.Pkgs) < 15 {
		t.Errorf("suspiciously few packages loaded: %d", len(prog.Pkgs))
	}
}

// TestSimCriticalPackagesClosed keeps SimCriticalPackages closed under
// imports. A sim-critical package that imports a program package
// outside the list could reach, from a machine's step path, globals
// that globalstate never inspects.
func TestSimCriticalPackagesClosed(t *testing.T) {
	l := NewLoader(repoRoot(t))
	inList := make(map[string]bool)
	for _, path := range SimCriticalPackages {
		inList[path] = true
	}
	for _, path := range SimCriticalPackages {
		dir, err := l.dirFor(path)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range bp.Imports {
			if strings.HasPrefix(imp, ModulePath+"/") && !inList[imp] {
				t.Errorf("%s imports %s, which is not in SimCriticalPackages", path, imp)
			}
		}
	}
}

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// expectation is one `// want "substring"` comment in a fixture.
type expectation struct {
	file string // base name
	line int
	want string
}

// fixtureExpectations scans a loaded fixture package for want comments.
func fixtureExpectations(prog *Program, pkg *Package) []expectation {
	var exps []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				exps = append(exps, expectation{filepath.Base(pos.Filename), pos.Line, m[1]})
			}
		}
	}
	return exps
}

// capflowFixtureRights are the rights-table rows of the capflow fixture
// (testdata/src/capflow), whose hypercall-shaped methods exercise the
// analyzer's rules. TestAnalyzersOnFixtures adds them to HypercallRights
// only while it runs that fixture, so the production table holds the
// kernel's hypercalls alone.
var capflowFixtureRights = map[string][]DeclaredLookup{
	"FixSignalBadRights": {{Param: 1, Type: cap.ObjSemaphore, Need: cap.RightRead}},
	"FixSignalOK":        {{Param: 1, Type: cap.ObjSemaphore, Need: cap.RightCall}},
	"FixOverRequest":     {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl | cap.RightCall}},
	"FixRetain":          {{Param: 1, Type: cap.ObjSemaphore, Need: cap.RightCtrl}},
	"FixHold":            {{Param: 1, Type: cap.ObjSemaphore, Need: cap.RightCtrl}},
	"FixHoldBadTeardown": {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"FixChain":           {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"FixDrift":           {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"FixCallPortal":      {{Param: -1, Type: cap.ObjPortal, Need: cap.RightCall}},
	"FixCallBadRights":   {{Param: -1, Type: cap.ObjPortal, Need: cap.RightRead}},
}

// TestAnalyzersOnFixtures runs each analyzer over its testdata fixture
// package and requires an exact match between reported diagnostics and
// the `// want "..."` comments: every seeded violation is caught, and
// nothing else is flagged.
func TestAnalyzersOnFixtures(t *testing.T) {
	root := repoRoot(t)
	cases := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{Determinism, "determinism"},
		{Capcheck, "capcheck"},
		{Capflow, "capflow"},
		{Chargecheck, "chargecheck"},
		{Nopanic, "nopanic"},
		{Exhaustive, "exhaustive"},
		{Taint, "taint"},
		{Tracepure, "tracepure"},
		{Globalstate, "globalstate"},
		{Concurrency, "concurrency"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			if tc.dir == "capflow" {
				for name, rows := range capflowFixtureRights {
					HypercallRights[name] = rows
				}
				t.Cleanup(func() {
					for name := range capflowFixtureRights {
						delete(HypercallRights, name)
					}
				})
			}
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", tc.dir)
			prog, err := LoadDirs(root, []string{dir})
			if err != nil {
				t.Fatal(err)
			}
			pkg := prog.Pkgs[0]
			diags := tc.analyzer.Run(prog, []*Package{pkg})
			exps := fixtureExpectations(prog, pkg)
			if len(exps) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.dir)
			}

			matched := make([]bool, len(diags))
			for _, exp := range exps {
				found := false
				for i, d := range diags {
					if matched[i] {
						continue
					}
					if filepath.Base(d.Pos.Filename) == exp.file && d.Pos.Line == exp.line && strings.Contains(d.Message, exp.want) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("expected diagnostic at %s:%d containing %q, got none", exp.file, exp.line, exp.want)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}
