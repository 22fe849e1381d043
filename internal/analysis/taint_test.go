package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// loadTaintFixture loads the taint fixture and solves its summaries.
func loadTaintFixture(t *testing.T) (*Program, *taintAnalysis) {
	t.Helper()
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "taint")
	prog, err := LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	full := newTaintAnalysis(&Pass{Prog: prog})
	if err := full.summarize(fixCaps{maxSummaryRounds, maxLocalPasses}); err != nil {
		t.Fatal(err)
	}
	return prog, full
}

// TestTaintFixpointCapFails: a return-taint fixpoint cut off while
// summaries still move is a load error that names a function whose
// return taint moved, and the suite runner returns it instead of
// findings. One round cannot converge on the taint fixture, since the
// first round moves every function whose results carry taint.
func TestTaintFixpointCapFails(t *testing.T) {
	prog, full := loadTaintFixture(t)
	capped := &Analyzer{Name: "taint", run: func(p *Pass) { runTaintCapped(p, fixCaps{1, maxLocalPasses}) }}
	_, _, err := RunEntriesOn(prog, []SuiteEntry{{capped, nil}})
	if err == nil {
		t.Fatal("a one-round taint fixpoint converged on the fixture")
	}
	var named *types.Func
	for fn := range full.summaries {
		if strings.Contains(err.Error(), " summary of "+fn.FullName()+" and ") {
			named = fn
		}
	}
	switch {
	case named == nil:
		t.Errorf("error names no fixture function: %v", err)
	case full.summaries[named].signature() == "":
		t.Errorf("error names %s, whose return taint is empty and so never moved", named.FullName())
	}
}

// TestTaintLocalCapFails: the walker's local fixpoint cut off while a
// function's environment still changes is a load error that the suite
// runner returns instead of findings.
func TestTaintLocalCapFails(t *testing.T) {
	prog, full := loadTaintFixture(t)
	capped := &Analyzer{Name: "taint", run: func(p *Pass) { runTaintCapped(p, fixCaps{maxSummaryRounds, 1}) }}
	_, _, err := RunEntriesOn(prog, []SuiteEntry{{capped, nil}})
	if localCapNamed(err, full.summaries) == nil {
		t.Fatalf("a one-pass local fixpoint did not fail naming a fixture function: %v", err)
	}
}
