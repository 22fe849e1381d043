package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestTaintFixpointCapFails: a return-taint fixpoint cut off while
// summaries still move is a load error that names a function whose
// return taint moved, and the suite runner returns it instead of
// findings. One round cannot converge on the taint fixture, since the
// first round moves every function whose results carry taint.
func TestTaintFixpointCapFails(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "taint")
	prog, err := LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	full := newTaintAnalysis(&Pass{Prog: prog})
	rounds, err := full.summarize(maxSummaryRounds)
	if err != nil {
		t.Fatal(err)
	}
	capped := &Analyzer{Name: "taint", run: func(p *Pass) { runTaintRounds(p, 1) }}
	_, _, err = RunEntriesOn(prog, []SuiteEntry{{capped, nil}})
	if err == nil {
		t.Fatalf("a one-round taint fixpoint converged on the fixture (%d rounds without the cap)", rounds)
	}
	var named *types.Func
	for fn := range full.summaries {
		if strings.Contains(err.Error(), " return taint of "+fn.FullName()+" and ") {
			named = fn
		}
	}
	switch {
	case named == nil:
		t.Errorf("error names no fixture function: %v", err)
	case full.summaries[named].retsSignature() == "":
		t.Errorf("error names %s, whose return taint is empty and so never moved", named.FullName())
	}
}

// TestTaintConvergesOnRepo: the repository's return-taint fixpoint
// converges under maxSummaryRounds.
func TestTaintConvergesOnRepo(t *testing.T) {
	prog, err := LoadRepo(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := newTaintAnalysis(&Pass{Prog: prog}).summarize(maxSummaryRounds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("converged in %d of %d rounds", rounds, maxSummaryRounds)
}
