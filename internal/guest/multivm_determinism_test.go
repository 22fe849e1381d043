package guest

import (
	"hash/fnv"
	"testing"

	"nova/internal/hw"
)

// machineResult is everything observable about one finished machine:
// completion cycles, the encoded-trace hash, an FNV hash of all
// physical RAM, and the final vCPU state rendering.
type machineResult struct {
	cycles    hw.Cycles
	traceHash uint64
	ramHash   uint64
	state     string
}

// newMachine boots one complete machine stack — platform, kernel, root
// PM, VMM — with a tracer attached and the workload parameters written.
func newMachine(t *testing.T, cfg RunnerConfig, img []byte, params []uint32) *Runner {
	t.Helper()
	cfg.TraceCapacity = 4096
	r, err := NewRunner(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, params...)
	return r
}

// stepChunk advances one machine by one scheduling chunk, using exactly
// RunUntilDone's per-chunk sequence (step, then poll the marker), so a
// machine driven chunk-by-chunk from outside performs the identical
// call sequence as one driven by RunUntilDone.
func stepChunk(t *testing.T, r *Runner) (hw.Cycles, bool) {
	t.Helper()
	const maxCycles = 10_000_000_000
	clk := r.Clock()
	if clk.Now() >= maxCycles {
		t.Fatalf("machine did not finish within %d cycles (marker=%#x)", hw.Cycles(maxCycles), r.Marker())
	}
	if err := r.step(clk.Now() + r.Chunk); err != nil {
		t.Fatalf("step: %v", err)
	}
	if r.Marker() == MarkerDone {
		tsc := hw.Cycles(uint64(r.ReadGuest32(DoneTSCAddr)) |
			uint64(r.ReadGuest32(DoneTSCAddr+4))<<32)
		if tsc > 0 && tsc <= clk.Now() {
			return tsc, true
		}
		return clk.Now(), true
	}
	return 0, false
}

// finish snapshots a machine's result once it reported done.
func finish(r *Runner, cycles hw.Cycles) machineResult {
	h := fnv.New64a()
	r.Plat.Mem.WriteTo(h) // a hash.Hash never returns a write error
	return machineResult{
		cycles:    cycles,
		traceHash: fnvHash(r.Obs().Encode()),
		ramHash:   h.Sum64(),
		state:     r.VCPU().State.String(),
	}
}

// runIsolated drives one machine to completion on its own — the
// sequential baseline.
func runIsolated(t *testing.T, cfg RunnerConfig, img []byte, params []uint32) machineResult {
	t.Helper()
	r := newMachine(t, cfg, img, params)
	for {
		if cycles, done := stepChunk(t, r); done {
			return finish(r, cycles)
		}
	}
}

// runInterleaved boots both machines in one process and interleaves
// their chunks: machine A takes aChunks chunks, then machine B takes
// bChunks, until each has finished. A finished machine simply stops
// being scheduled, exactly as RunUntilDone would have stopped it.
func runInterleaved(t *testing.T, a, b *Runner, aChunks, bChunks int) (machineResult, machineResult) {
	t.Helper()
	var resA, resB machineResult
	doneA, doneB := false, false
	for !doneA || !doneB {
		for i := 0; i < aChunks && !doneA; i++ {
			if cycles, done := stepChunk(t, a); done {
				resA, doneA = finish(a, cycles), true
			}
		}
		for i := 0; i < bChunks && !doneB; i++ {
			if cycles, done := stepChunk(t, b); done {
				resB, doneB = finish(b, cycles), true
			}
		}
	}
	return resA, resB
}

// requireEqual compares a machine's interleaved result against its
// isolated baseline, field by field.
func requireEqual(t *testing.T, name, schedule string, got, want machineResult) {
	t.Helper()
	if got.cycles != want.cycles {
		t.Errorf("%s (%s): cycle count %d, isolated run %d (Δ=%d)", name, schedule, got.cycles, want.cycles, int64(got.cycles)-int64(want.cycles))
	}
	if got.traceHash != want.traceHash {
		t.Errorf("%s (%s): trace hash %#x, isolated run %#x", name, schedule, got.traceHash, want.traceHash)
	}
	if got.ramHash != want.ramHash {
		t.Errorf("%s (%s): final RAM hash %#x, isolated run %#x", name, schedule, got.ramHash, want.ramHash)
	}
	if got.state != want.state {
		t.Errorf("%s (%s): final vCPU state differs:\n interleaved %s\n isolated    %s", name, schedule, got.state, want.state)
	}
}

// TestTwoMachineInterleavedDeterminism is the runtime counterpart of the
// globalstate analyzer: two complete machine stacks booted in the same
// process and stepped in interleaved chunks must produce results
// bit-identical to each machine running alone — same completion cycles,
// same encoded-trace hash, same final RAM, same final vCPU state — and
// the interleaving schedule must not matter. Any shared mutable state
// between the stacks (a package global written on the step path, a
// shared table mutated after init) shows up here as a divergence; this
// is the property a parallel multi-VM engine would rely on.
func TestTwoMachineInterleavedDeterminism(t *testing.T) {
	cfgA := RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true}
	cfgB := RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB}
	img := MustBuild(ComputeKernelWithSwitches(true, false, 8))
	params := []uint32{3, 64 << 10}

	wantA := runIsolated(t, cfgA, img, params)
	wantB := runIsolated(t, cfgB, img, params)
	if wantA.traceHash == wantB.traceHash {
		t.Fatal("the two configurations produced identical traces; the test would not detect cross-machine coupling")
	}

	// Round-robin: one chunk each.
	a := newMachine(t, cfgA, img, params)
	b := newMachine(t, cfgB, img, params)
	gotA, gotB := runInterleaved(t, a, b, 1, 1)
	requireEqual(t, "machine A (ept)", "round-robin", gotA, wantA)
	requireEqual(t, "machine B (vtlb)", "round-robin", gotB, wantB)

	// Skewed: three chunks of A per chunk of B. If isolation holds, the
	// schedule is unobservable.
	a = newMachine(t, cfgA, img, params)
	b = newMachine(t, cfgB, img, params)
	gotA, gotB = runInterleaved(t, a, b, 3, 1)
	requireEqual(t, "machine A (ept)", "3:1 skew", gotA, wantA)
	requireEqual(t, "machine B (vtlb)", "3:1 skew", gotB, wantB)

	t.Logf("A: %d cycles trace %#x ram %#x; B: %d cycles trace %#x ram %#x",
		wantA.cycles, wantA.traceHash, wantA.ramHash, wantB.cycles, wantB.traceHash, wantB.ramHash)
}
