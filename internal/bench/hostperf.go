package bench

import (
	"encoding/binary"
	"fmt"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/walltime"
)

// RunHostPerf measures how fast the *simulator itself* executes guest
// code: retired guest instructions per host wall-clock second (guest
// MIPS), with the interpreter's host-side fast path on — the decoded-
// instruction cache and its fused runs ("fused") — and off ("bare"),
// for the compile workload across execution modes.
//
// This is the one experiment in the suite about the host, not the
// simulated machine — hence the walltime import. The simulated results
// of both settings are bit-identical (enforced by
// TestDecodeCacheABIdentity and the CI identity step); only the host
// seconds may differ, and the speedup column quantifies by how much.
func RunHostPerf(sc Scale) (*Table, error) {
	type cfgSpec struct {
		label string
		cfg   guest.RunnerConfig
	}
	specs := []cfgSpec{
		{"native", guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeNative}},
		{"ept", guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, HostLargePages: true}},
		{"vtlb", guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtVTLB, UseVPID: true, HostLargePages: true}},
	}

	var vcycles uint64
	res := &Resources{}
	run := func(cfg guest.RunnerConfig, disableCache bool) (insts uint64, seconds float64, err error) {
		cfg.DisableDecodeCache = disableCache
		img := guest.MustBuild(guest.CompileKernel(667))
		if cfg.Mode == guest.ModeVirtEPT || cfg.Mode == guest.ModeVirtVTLB {
			cfg.WithDiskServer = true
		}
		r, err := guest.NewRunner(cfg, img)
		if err != nil {
			return 0, 0, err
		}
		params := make([]byte, 24)
		binary.LittleEndian.PutUint32(params[0:], uint32(sc.Slices))
		binary.LittleEndian.PutUint32(params[4:], uint32(sc.CachePages))
		binary.LittleEndian.PutUint32(params[8:], uint32(sc.PrivPages))
		binary.LittleEndian.PutUint32(params[12:], uint32(sc.FillerIter))
		binary.LittleEndian.PutUint32(params[16:], 1)
		binary.LittleEndian.PutUint32(params[20:], uint32(sc.CachePasses))
		r.WriteGuest(guest.ParamBase, params)
		sw := walltime.Start()
		cy, err := r.RunUntilDone(1 << 40)
		if err != nil {
			return 0, 0, err
		}
		vcycles += uint64(cy)
		res.AddRun(r)
		return r.InstRet(), sw.Seconds(), nil
	}

	t := &Table{
		Title:   "Host performance: guest MIPS (retired guest instructions / host second)",
		Columns: []string{"mode", "guest insts", "MIPS fused", "MIPS bare", "fused/bare"},
	}
	for _, s := range specs {
		fusedInsts, fusedSec, err := run(s.cfg, false)
		if err != nil {
			return nil, fmt.Errorf("hostperf %s (fused): %w", s.label, err)
		}
		bareInsts, bareSec, err := run(s.cfg, true)
		if err != nil {
			return nil, fmt.Errorf("hostperf %s (bare): %w", s.label, err)
		}
		if fusedInsts != bareInsts {
			return nil, fmt.Errorf("hostperf %s: retired-instruction counts diverged across fast-path settings (fused %d, bare %d) — a host-side layer leaked into the simulation", s.label, fusedInsts, bareInsts)
		}
		mips := func(insts uint64, sec float64) float64 {
			if sec <= 0 {
				return 0
			}
			return float64(insts) / sec / 1e6
		}
		fused, bare := mips(fusedInsts, fusedSec), mips(bareInsts, bareSec)
		ratio := "-"
		if bare > 0 {
			ratio = f2(fused / bare)
		}
		t.Rows = append(t.Rows, []string{s.label, d(fusedInsts), f1(fused), f1(bare), ratio})
	}
	t.Notes = append(t.Notes,
		"host-side metric: wall-clock throughput of the simulator process, not a simulated quantity",
		"fused = decode cache and its fused runs, bare = neither; both retire identical instruction streams")
	t.VirtualCycles = vcycles
	t.Resources = res
	return t, nil
}
