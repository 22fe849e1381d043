package guest

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nova/internal/hw"
	"nova/internal/obs"
	"nova/internal/stat"
)

// The A/B identity matrix. The host-only decode cache, with its fused
// runs, and the observability sinks (trace, stat, span, prof) must be
// invisible to the simulation: every cell of
//
//	sinks {none, trace, obs, all} × decode cache × abCases
//
// must finish with the same cycle total, the same physical memory and
// the same final vCPU state, and cells that share a sink must encode
// byte-identical output from it. Only "all" attaches the profiler,
// whose samples the run loops take at their step boundaries and whose
// next sample point caps every fused run, so comparing it with "obs"
// holds the other sinks of a profiled run to those of an unprofiled
// one. Each cell runs once per test binary; the tests below are views
// that compare pairs of cells.

// abCase is one workload of the matrix.
type abCase struct {
	name   string
	cfg    RunnerConfig
	img    []byte
	params []uint32
}

// abCases is the one case table: the native baseline (the bare-metal
// run loop), EPT (exits, disk server), vTLB (fills, flushes) and a
// disk-backed boot (injections, DMA completions, per-client accounting).
func abCases() []abCase {
	compute := MustBuild(ComputeKernelWithSwitches(true, false, 8))
	return []abCase{
		{"native-compute", RunnerConfig{Model: hw.BLM, Mode: ModeNative}, compute, []uint32{3, 64 << 10}},
		{"ept-compute", RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true}, compute, []uint32{3, 64 << 10}},
		{"vtlb-compute", RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB}, compute, []uint32{3, 64 << 10}},
		{"ept-disk-boot", RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
			MustBuild(DiskChecksumKernel()), []uint32{8, 4, 2000}},
	}
}

// Sink sets of the matrix, each a superset of the one before.
const (
	sinksNone = iota
	// sinksTrace attaches the tracer alone.
	sinksTrace
	// sinksObs adds the stat registry and the span recorder: every sink
	// but the profiler.
	sinksObs
	// sinksAll adds the profiler, whose sample points cut fused runs.
	sinksAll
)

// abCell is one configuration of the matrix. With the decode cache
// off nothing fuses, so noCache is also the fused-or-stepped axis.
type abCell struct {
	sinks   int
	noCache bool
}

// abResult is everything a cell must reproduce. Sink outputs are FNV
// hashes of each sink's file section, encoded alone (0 when the sink
// is off).
type abResult struct {
	cycles                   hw.Cycles
	ram                      uint64
	state                    string
	trace, stats, spans, prf uint64
}

var abMemo = map[string]abResult{}

// abRun runs one cell of the matrix, once per test binary.
func abRun(t *testing.T, tc abCase, c abCell) abResult {
	t.Helper()
	key := fmt.Sprintf("%s/%+v", tc.name, c)
	if res, ok := abMemo[key]; ok {
		return res
	}
	cfg := tc.cfg
	cfg.DisableDecodeCache = c.noCache
	virt := cfg.Mode != ModeNative
	if c.sinks >= sinksTrace && virt {
		cfg.TraceCapacity = 4096
	}
	if c.sinks >= sinksObs {
		cfg.StatEpoch = stat.DefaultEpochLen
		if virt {
			cfg.SpanCapacity = 4096
		}
	}
	if c.sinks == sinksAll {
		cfg.ProfilePeriod = 10_000
	}
	r, err := NewRunner(cfg, tc.img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, tc.params...)
	cycles, err := r.RunUntilDone(10_000_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ram := fnv.New64a()
	r.Plat.Mem.WriteTo(ram) // a hash.Hash never returns a write error
	res := abResult{cycles: cycles, ram: ram.Sum64()}
	if v := r.VCPU(); v != nil {
		res.state = v.State.String()
	} else {
		res.state = r.BM.State.String()
	}
	f := r.Obs()
	alone := func(g obs.File) uint64 {
		g.Header = f.Header
		return fnvHash(g.Encode())
	}
	if f.Trace != nil {
		res.trace = alone(obs.File{Trace: f.Trace})
	}
	if f.Stat != nil {
		res.stats = alone(obs.File{Stat: f.Stat})
	}
	if f.Spans != nil {
		res.spans = alone(obs.File{Spans: f.Spans})
	}
	if f.Prof != nil {
		res.prf = alone(obs.File{Prof: f.Prof})
	}
	abMemo[key] = res
	return res
}

func fnvHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// abSame requires cells a and b of one case to be indistinguishable:
// same simulation results, and the same output from every sink both
// cells attach.
func abSame(t *testing.T, tc abCase, a, b abCell) {
	t.Helper()
	ra, rb := abRun(t, tc, a), abRun(t, tc, b)
	label := fmt.Sprintf("%+v vs %+v", a, b)
	if ra.cycles != rb.cycles {
		t.Errorf("%s: cycle totals differ: %d vs %d (Δ=%d)", label, ra.cycles, rb.cycles, int64(rb.cycles)-int64(ra.cycles))
	}
	if ra.ram != rb.ram {
		t.Errorf("%s: final physical memory differs: %#x vs %#x", label, ra.ram, rb.ram)
	}
	if ra.state != rb.state {
		t.Errorf("%s: final vCPU state differs:\n %s\n %s", label, ra.state, rb.state)
	}
	both := min(a.sinks, b.sinks)
	if both >= sinksTrace && ra.trace != rb.trace {
		t.Errorf("%s: trace hashes differ: %#x vs %#x", label, ra.trace, rb.trace)
	}
	if both >= sinksObs && (ra.stats != rb.stats || ra.spans != rb.spans) {
		t.Errorf("%s: sink outputs differ: stats %#x/%#x spans %#x/%#x",
			label, ra.stats, rb.stats, ra.spans, rb.spans)
	}
	if both == sinksAll && ra.prf != rb.prf {
		t.Errorf("%s: profiles differ: %#x vs %#x", label, ra.prf, rb.prf)
	}
}

// abView is a named group of cell comparisons; an unnamed view runs in
// the case's own subtest.
type abView struct {
	name  string
	pairs [][2]abCell
}

// abMatrix runs the views for every case.
func abMatrix(t *testing.T, views ...abView) {
	for _, tc := range abCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range views {
				check := func(t *testing.T) {
					for _, p := range v.pairs {
						abSame(t, tc, p[0], p[1])
					}
				}
				if v.name == "" {
					check(t)
				} else {
					t.Run(v.name, check)
				}
			}
		})
	}
}

var (
	abTrace = abCell{sinks: sinksTrace}
	abObs   = abCell{sinks: sinksObs}
	abAll   = abCell{sinks: sinksAll}
)

// TestDecodeCacheABIdentity: the decoded-instruction cache on and off,
// with the tracer alone: the simulation and its trace are the same.
func TestDecodeCacheABIdentity(t *testing.T) {
	abMatrix(t, abView{"", [][2]abCell{{abTrace, {sinks: sinksTrace, noCache: true}}}})
}

// TestFusedRunABIdentity: with the decode cache off nothing fuses, so
// these pairs compare fused runs with stepped ones on the sinks the run
// loops feed. The plain view compares stat and span output; the
// profiled view compares a fused profiled run with a stepped one: with
// the next sample point in the fuse window, every sample and every
// other sink output must match exactly.
func TestFusedRunABIdentity(t *testing.T) {
	abMatrix(t,
		abView{"plain", [][2]abCell{{abObs, {sinks: sinksObs, noCache: true}}}},
		abView{"profiled", [][2]abCell{{abAll, {sinks: sinksAll, noCache: true}}}})
}

// TestProfilerABIdentity: attaching the profiler changes nothing: the
// trace, stats and spans of a profiled run, whose fused runs end at
// sample points, equal those of the run without it.
func TestProfilerABIdentity(t *testing.T) {
	abMatrix(t, abView{"", [][2]abCell{{abTrace, abAll}, {abObs, abAll}}})
}

// TestStatsABIdentity: attaching the stat registry and span recorder
// to a fused run changes neither the simulation nor the trace.
func TestStatsABIdentity(t *testing.T) {
	abMatrix(t, abView{"", [][2]abCell{{{}, abObs}, {abTrace, abObs}}})
}

// TestSpanABIdentity: the same with the decode cache on and off, that
// is, in fused and in stepped runs.
func TestSpanABIdentity(t *testing.T) {
	abMatrix(t,
		abView{"cache-on", [][2]abCell{{abTrace, abObs}}},
		abView{"cache-off", [][2]abCell{{{sinks: sinksTrace, noCache: true}, {sinks: sinksObs, noCache: true}}}})
}
