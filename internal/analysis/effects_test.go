package analysis

import (
	"fmt"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadEffectsFixture loads the hand-built mini program and computes its
// effect summaries.
func loadEffectsFixture(t *testing.T) (*Program, *Effects) {
	t.Helper()
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "effects")
	prog, err := LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	eff := prog.Effects()
	if prog.fixErr != nil {
		t.Fatal(prog.fixErr)
	}
	return prog, eff
}

// summaryByName finds the summary of the (unique) function or method
// with the given bare name in the fixture.
func summaryByName(t *testing.T, eff *Effects, name string) *EffectSummary {
	t.Helper()
	var found *EffectSummary
	for fn, s := range eff.Summaries {
		if fn.Name() != name {
			continue
		}
		if found != nil {
			t.Fatalf("fixture has two functions named %s", name)
		}
		found = s
	}
	if found == nil {
		t.Fatalf("no summary for fixture function %s", name)
	}
	return found
}

// regionStrings renders a summary's write regions for comparison.
func regionStrings(s *EffectSummary) []string {
	var out []string
	for _, r := range s.WriteRegions() {
		out = append(out, r.String())
	}
	return out
}

// retStrings renders a summary's return-alias sets for comparison.
func retStrings(s *EffectSummary) []string {
	var out []string
	for i, set := range s.Rets {
		for _, r := range set.sortedRegions() {
			out = append(out, fmt.Sprintf("r%d=%s", i, r.String()))
		}
	}
	return out
}

// TestEffectSummaries pins the engine's output on the mini program:
// which regions each function writes and what its results alias. This
// is the contract globalstate builds on.
func TestEffectSummaries(t *testing.T) {
	_, eff := loadEffectsFixture(t)
	cases := []struct {
		fn     string
		writes []string // Region.String() values, sorted
		rets   []string // "r<i>=<region>" values
	}{
		{"SetReg", []string{"receiver"}, nil},
		{"Fill", []string{"param#1"}, nil},
		{"Bump", []string{"global Counter"}, nil},
		{"BufAlias", nil, []string{"r0=global Buf"}},
		{"WriteThroughAlias", []string{"global Buf"}, nil},
		{"CopyOut", nil, nil}, // scalar copies sever aliasing
		{"AddrOfCounter", nil, []string{"r0=global Counter"}},
		{"WriteViaPointer", []string{"global Counter"}, nil},
		// Step writes nothing itself; every region is mapped through a
		// call site: receiver via SetReg, param#0 via Fill, the global
		// via Bump.
		{"Step", []string{"receiver", "param#0", "global Counter"}, nil},
		{"SortGlobal", []string{"global Sorted"}, nil},
		{"Logf", []string{"param#1"}, nil},
		{"LogSentinel", nil, nil},
		{"BumpAll", []string{"param#0"}, nil},
		{"BumpCounter", []string{"global Counter"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			s := summaryByName(t, eff, tc.fn)
			got := regionStrings(s)
			want := append([]string{}, tc.writes...)
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("writes of %s = [%s], want [%s]", tc.fn, strings.Join(got, ","), strings.Join(want, ","))
			}
			gotRets := retStrings(s)
			wantRets := append([]string{}, tc.rets...)
			sort.Strings(gotRets)
			sort.Strings(wantRets)
			if strings.Join(gotRets, ",") != strings.Join(wantRets, ",") {
				t.Errorf("rets of %s = [%s], want [%s]", tc.fn, strings.Join(gotRets, ","), strings.Join(wantRets, ","))
			}
		})
	}
}

// TestEffectWritePaths checks the interprocedural attribution: a mapped
// write keeps the original store site and records the call chain.
func TestEffectWritePaths(t *testing.T) {
	prog, eff := loadEffectsFixture(t)
	step := summaryByName(t, eff, "Step")
	var counter *types.Var
	for r := range step.Writes {
		if r.Kind == RegionGlobal && r.Global.Name() == "Counter" {
			counter = r.Global
		}
	}
	if counter == nil {
		t.Fatal("Step has no write effect on Counter")
	}
	w := step.WritesGlobal(counter)
	if w.Direct {
		t.Error("Step's Counter write should be mapped, not direct")
	}
	if len(w.Path) != 2 || !strings.Contains(w.Path[0], "Bump") || !strings.Contains(w.Path[1], "Step") {
		t.Errorf("Counter write path = %v, want [Bump, Step]", w.Path)
	}
	pos := prog.Fset.Position(w.Pos)
	if filepath.Base(pos.Filename) != "effects.go" {
		t.Errorf("write site file = %s, want effects.go", pos.Filename)
	}
	// The representative site must be the actual store in Bump.
	bump := summaryByName(t, eff, "Bump")
	bw := bump.WritesGlobal(counter)
	if bw == nil || !bw.Direct {
		t.Fatal("Bump's Counter write should be direct")
	}
	if bw.Pos != w.Pos {
		t.Error("mapped write should keep the original store site")
	}
}

// TestEffectCallSiteWriter checks that a call binding a global to a
// callee that writes through its argument is the global's direct
// writer, at the call: the callee cannot know what it was handed.
func TestEffectCallSiteWriter(t *testing.T) {
	prog, eff := loadEffectsFixture(t)
	for _, tc := range []struct{ fn, global string }{
		{"SortGlobal", "Sorted"},   // a stdlib callee
		{"BumpCounter", "Counter"}, // a program callee, through ...*int
	} {
		s := summaryByName(t, eff, tc.fn)
		var w *WriteEffect
		for r, we := range s.Writes {
			if r.Kind == RegionGlobal && r.Global.Name() == tc.global {
				w = we
			}
		}
		switch {
		case w == nil:
			t.Errorf("%s has no write effect on %s", tc.fn, tc.global)
		case !w.Direct || len(w.Path) != 1:
			t.Errorf("%s's %s write: direct=%v path=%v, want direct", tc.fn, tc.global, w.Direct, w.Path)
		case prog.Fset.Position(w.Pos).Line != prog.Fset.Position(s.node.Decl.Pos()).Line:
			t.Errorf("%s's %s write is not at the call in its one-line body", tc.fn, tc.global)
		}
	}
}

// TestEffectsFixpointCapFails: a fixpoint cut off while summaries still
// move is a load error that names a function whose summary moved, not
// a silent stop on partial summaries. One round cannot converge on the
// fixture, since the first round moves every summary that is not
// empty; the suite runner then fails instead of reporting findings.
func TestEffectsFixpointCapFails(t *testing.T) {
	prog, full := loadEffectsFixture(t)
	eff, err := computeEffects(prog, fixCaps{1, maxLocalPasses})
	if err == nil {
		t.Fatal("a one-round fixpoint converged on the fixture")
	}
	if !strings.Contains(err.Error(), " in 1 round(s)") {
		t.Errorf("error does not name the cap of 1: %v", err)
	}
	var named *types.Func
	for fn := range full.Summaries {
		if strings.Contains(err.Error(), " summary of "+fn.FullName()+" and ") {
			named = fn
		}
	}
	switch {
	case named == nil:
		t.Errorf("error names no fixture function: %v", err)
	case full.Summaries[named].signature() == "":
		t.Errorf("error names %s, whose summary is empty and so never moved", named.FullName())
	}

	prog.eff, prog.fixErr = eff, err
	if _, _, runErr := RunEntriesOn(prog, []SuiteEntry{{Globalstate, nil}}); runErr != err {
		t.Errorf("suite run returned %v, want the fixpoint error", runErr)
	}
}

// TestEffectsLocalCapFails: the walker's local fixpoint cut off while a
// function's environment still changes is a load error too. One pass
// cannot converge on a function whose assignments bind anything, since
// that pass changes its environment.
func TestEffectsLocalCapFails(t *testing.T) {
	prog, full := loadEffectsFixture(t)
	eff, err := computeEffects(prog, fixCaps{maxEffectRounds, 1})
	if named := localCapNamed(err, full.Summaries); named == nil {
		t.Fatalf("a one-pass local fixpoint did not fail naming a fixture function: %v", err)
	}
	prog.eff, prog.fixErr = eff, err
	if _, _, runErr := RunEntriesOn(prog, []SuiteEntry{{Globalstate, nil}}); runErr != err {
		t.Errorf("suite run returned %v, want the fixpoint error", runErr)
	}
}

// localCapNamed returns the function of fns that a local-cap error
// names, or nil.
func localCapNamed[S any](err error, fns map[*types.Func]S) *types.Func {
	if err == nil {
		return nil
	}
	for fn := range fns {
		if strings.Contains(err.Error(), "propagation in "+fn.FullName()+" did not converge in 1 pass(es)") {
			return fn
		}
	}
	return nil
}
