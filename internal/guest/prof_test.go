package guest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nova/internal/hw"
	"nova/internal/obs"
)

// caseRun runs an A/B case to completion under cfg, with the base
// instruction cost set to ic on the runner's own copy of its cost
// model, and returns the runner and its cycle total.
func caseRun(t *testing.T, tc abCase, cfg RunnerConfig, ic hw.Cycles) (*Runner, hw.Cycles) {
	t.Helper()
	r, err := NewRunner(cfg, tc.img)
	if err != nil {
		t.Fatal(err)
	}
	cost := *r.Plat.Cost
	cost.InstructionCost = ic
	r.Plat.Cost = &cost
	r.Chunk = 100_000
	writeParams(r, tc.params...)
	cycles, err := r.RunUntilDone(10_000_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r, cycles
}

// profEncodeRun performs one profiled run and returns the encoded file,
// which holds the profile alone, and the cycle total.
func profEncodeRun(t *testing.T, tc abCase, cfg RunnerConfig, period uint64, ic hw.Cycles) ([]byte, hw.Cycles) {
	t.Helper()
	cfg.ProfilePeriod = period
	r, cycles := caseRun(t, tc, cfg, ic)
	return r.Obs().Encode(), cycles
}

// TestProfileDoubleRunByteIdentity runs each workload twice with
// profiling enabled and requires byte-identical encoded profiles with a
// nonzero sample count: the sampling grid, the stack walks, the
// attributions and the captured code bytes all derive from
// deterministic simulation state, so nothing may vary between runs.
func TestProfileDoubleRunByteIdentity(t *testing.T) {
	for _, tc := range abCases() {
		t.Run(tc.name, func(t *testing.T) {
			b1, _ := profEncodeRun(t, tc, tc.cfg, 10_000, 1)
			b2, _ := profEncodeRun(t, tc, tc.cfg, 10_000, 1)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two profiled runs encode differently (%d vs %d bytes)", len(b1), len(b2))
			}
			f, err := obs.Decode(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			d := f.Prof
			if d.TotalSamples() == 0 {
				t.Fatal("profiled run recorded zero samples")
			}
			t.Logf("%s: %d samples, %d attributed events, %s",
				tc.name, d.TotalSamples(), len(d.Attrib), fmt.Sprintf("%d bytes", len(b1)))
		})
	}
}

// fusedInsts returns how many instructions the runner's guest CPU
// retired in fused runs.
func fusedInsts(r *Runner) uint64 {
	if r.BM != nil {
		return r.BM.Interp.Cache.SB.Fused
	}
	return r.VCPU().Interp.Cache.SB.Fused
}

// TestProfiledRunsFuse: attaching the profiler does not force single
// stepping. Profiled runs fuse nearly as much as unprofiled ones; the
// only fused instructions lost are those of runs cut at a sample
// point.
func TestProfiledRunsFuse(t *testing.T) {
	for _, tc := range abCases() {
		if tc.name != "ept-compute" && tc.name != "native-compute" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			r, _ := caseRun(t, tc, tc.cfg, 1)
			plain, insts := fusedInsts(r), r.InstRet()
			cfg := tc.cfg
			cfg.ProfilePeriod = 10_000
			r, _ = caseRun(t, tc, cfg, 1)
			profiled := fusedInsts(r)
			t.Logf("fused instructions: %d of %d unprofiled, %d profiled", plain, insts, profiled)
			if plain < insts/2 {
				t.Fatalf("the unprofiled run fused only %d of %d instructions; the case no longer tests fusion", plain, insts)
			}
			if profiled < plain-plain/50 {
				t.Errorf("profiled run fused %d instructions, more than 2%% below the unprofiled run's %d", profiled, plain)
			}
		})
	}
}

// TestProfileFusedMatchesStepped: a fused profiled run records exactly
// the samples of a single-stepped one, at periods down to one cycle,
// with a base instruction cost above one (StepBlock rounds its window
// to whole instructions) and with run fetches that charge vTLB fills
// (vtlb-compute reloads CR3 every pass). The stepped run has the decode
// cache off.
func TestProfileFusedMatchesStepped(t *testing.T) {
	for _, tc := range abCases() {
		if !strings.HasSuffix(tc.name, "-compute") {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, ic := range []hw.Cycles{1, 3} {
				for _, period := range []uint64{1, 7, 997, 10_000} {
					label := fmt.Sprintf("ic=%d period=%d", ic, period)
					fusedProf, fusedCycles := profEncodeRun(t, tc, tc.cfg, period, ic)
					stepped := tc.cfg
					stepped.DisableDecodeCache = true
					steppedProf, steppedCycles := profEncodeRun(t, tc, stepped, period, ic)
					if fusedCycles != steppedCycles {
						t.Errorf("%s: cycle totals differ: fused %d, stepped %d", label, fusedCycles, steppedCycles)
					}
					if !bytes.Equal(fusedProf, steppedProf) {
						t.Errorf("%s: fused and stepped profiles differ (%d vs %d bytes)", label, len(fusedProf), len(steppedProf))
					}
				}
			}
		})
	}
}
