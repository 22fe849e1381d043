package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadCapflowFixture loads the capflow fixture.
func loadCapflowFixture(t *testing.T) *Program {
	t.Helper()
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "capflow")
	prog, err := LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCapflowCapsFail: capflow's flow-summary fixpoint cut off after one
// round, and a hypercall or summary frame's local propagation cut off
// after one pass, are each a load error that the suite runner returns
// instead of findings. One round cannot converge on the fixture, whose
// first round moves every summary with an escape, an invocation or a
// result flow.
func TestCapflowCapsFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		caps fixCaps
		want string
	}{
		{"rounds", fixCaps{1, maxLocalPasses}, "analysis: capflow did not converge in 1 round(s): the last moved the summary of "},
		{"passes", fixCaps{maxFlowRounds, 1}, "analysis: local propagation in "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := loadCapflowFixture(t)
			capped := &Analyzer{Name: "capflow", run: func(p *Pass) { runCapflowCapped(p, tc.caps) }}
			_, _, err := RunEntriesOn(prog, []SuiteEntry{{capped, nil}})
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "fixture/capflow.") {
				t.Fatalf("suite run returned %v, want an error containing %q that names a fixture function", err, tc.want)
			}
		})
	}
}
