package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"nova/internal/cap"
	"nova/internal/walltime"
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

// suiteBudgetSeconds bounds the full-repository load and suite run.
// The gate runs on every test invocation and before every commit; if it
// cannot stay fast it will be bypassed. The run (load + type-check +
// call graph + three summary fixpoints + ten analyzers) takes a few
// seconds; the bound leaves an order of magnitude of headroom for slow
// CI machines while still catching a fixpoint that stops converging.
const suiteBudgetSeconds = 60.0

// repoRun is the one load of the repository and one run of the default
// suite that the whole-repository tests share. Loading and
// type-checking the repository is most of each such test's cost, so
// the test binary pays it once; each test checks its own part.
type repoRun struct {
	prog    *Program
	loadErr error // LoadRepo's error; prog is nil with it
	diags   []Diagnostic
	runErr  error   // RunSuiteOn's error, a fixpoint still moving at its cap included
	seconds float64 // the load and the run
}

var (
	repoRunOnce sync.Once
	sharedRun   repoRun
)

// loadRepoRun returns the shared run, making it on first use. It stops
// the test if the repository did not load, or, unless loadOnly, if the
// suite returned an error.
func loadRepoRun(t *testing.T, loadOnly bool) *repoRun {
	t.Helper()
	root := repoRoot(t)
	repoRunOnce.Do(func() {
		r := &sharedRun
		sw := walltime.Start()
		if r.prog, r.loadErr = LoadRepo(root); r.loadErr == nil {
			r.diags, r.runErr = RunSuiteOn(r.prog)
		}
		r.seconds = sw.Seconds()
	})
	if sharedRun.loadErr != nil {
		t.Fatal(sharedRun.loadErr)
	}
	if !loadOnly && sharedRun.runErr != nil {
		t.Fatal(sharedRun.runErr)
	}
	return &sharedRun
}

// converged fails the test unless the whole-program fixpoint named what
// ran to convergence under its cap, and logs its rounds.
func (r *repoRun) converged(t *testing.T, what string) {
	t.Helper()
	for _, f := range r.prog.fixRuns {
		if f.what == what {
			t.Logf("%s converged in %d of %d rounds", f.what, f.rounds, f.cap)
			return
		}
	}
	t.Errorf("the %s fixpoint did not run", what)
}

// TestRepoInvariants is the tier-1 gate: the whole repository must pass
// every analyzer of the default suite, and the three whole-program
// fixpoints must have run. There is no baseline: a finding fails
// `go test ./...`, not just the optional nova-vet run, and gets fixed.
func TestRepoInvariants(t *testing.T) {
	r := loadRepoRun(t, false)
	for _, d := range r.diags {
		t.Errorf("invariant violation: %s", d)
	}
	var engines []string
	for _, f := range r.prog.fixRuns {
		t.Logf("%s converged in %d of %d rounds", f.what, f.rounds, f.cap)
		engines = append(engines, f.what)
	}
	if got := strings.Join(engines, ", "); got != "write effects, capflow, taint" {
		t.Errorf("fixpoints run: %s, want write effects, capflow, taint", got)
	}
}

// TestLoaderCoversRepo sanity-checks the source loader: every package
// the analyzers depend on must load and type-check.
func TestLoaderCoversRepo(t *testing.T) {
	prog := loadRepoRun(t, true).prog
	for _, path := range append(append([]string{}, SimCriticalPackages...), EntryPointPackages...) {
		if prog.Package(path) == nil {
			t.Errorf("suite package %s not loaded", path)
		}
	}
	if len(prog.Pkgs) < 15 {
		t.Errorf("suspiciously few packages loaded: %d", len(prog.Pkgs))
	}
}

// TestSuiteRuntimeBudget asserts the analyzer gate stays affordable:
// the shared load and suite run stay inside suiteBudgetSeconds.
func TestSuiteRuntimeBudget(t *testing.T) {
	r := loadRepoRun(t, false)
	t.Logf("suite: %d finding(s) in %.2fs", len(r.diags), r.seconds)
	if r.seconds > suiteBudgetSeconds {
		t.Errorf("load and suite took %.1fs, budget is %.0fs — an analyzer fixpoint is likely diverging", r.seconds, suiteBudgetSeconds)
	}
}

// TestEffectsConvergeOnRepo: the repository's effect fixpoint converges
// under maxEffectRounds (a load error otherwise).
func TestEffectsConvergeOnRepo(t *testing.T) {
	loadRepoRun(t, false).converged(t, "write effects")
}

// TestTaintConvergesOnRepo: the repository's taint fixpoint converges
// under maxSummaryRounds (a load error otherwise).
func TestTaintConvergesOnRepo(t *testing.T) {
	loadRepoRun(t, false).converged(t, "taint")
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
	"FixRecurseDirect":   {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"FixRecurse":         {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"FixVariadic":        {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"FixHoldTwice":       {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
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
