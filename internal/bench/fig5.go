package bench

import (
	"encoding/binary"
	"fmt"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/prof"
)

// Fig5Row is one bar of Figure 5.
type Fig5Row struct {
	Group    string
	Label    string
	Relative float64 // % of native performance (measured or modeled)
	Paper    float64 // % the paper reports (0 if not shown)
	Kind     string  // "measured", "modeled", "anchor"
	Cycles   hw.Cycles
	Exits    uint64
}

// Modeled per-exit penalties of the monolithic competitors relative to
// NOVA's exit handling (QEMU round trips, Dom0 scheduling, heavier exit
// paths). These constants are calibrated so the Figure 5 deltas land in
// the paper's neighbourhood; the *shape* claim is only about ordering.
const (
	kvmExtraPerExit    = 2500
	xenExtraPerExit    = 6000
	esxiExtraPerExit   = 6000
	hypervExtraPerExit = 12000
)

// runCompileConfig executes the compile workload under one
// configuration and returns duration, total VM exits, and the run's
// guest profile (sampling is zero-perturbation, so the first two are
// identical with and without it). The run's resource totals fold into
// rs when non-nil.
func runCompileConfig(sc Scale, cfg guest.RunnerConfig, disk bool, rs *Resources) (hw.Cycles, uint64, *prof.Data, error) {
	img := guest.MustBuild(guest.CompileKernel(667))
	if disk && (cfg.Mode == guest.ModeVirtEPT || cfg.Mode == guest.ModeVirtVTLB) {
		cfg.WithDiskServer = true
	}
	cfg.ProfilePeriod = benchProfPeriod
	r, err := guest.NewRunner(cfg, img)
	if err != nil {
		return 0, 0, nil, err
	}
	params := make([]byte, 24)
	binary.LittleEndian.PutUint32(params[0:], uint32(sc.Slices))
	binary.LittleEndian.PutUint32(params[4:], uint32(sc.CachePages))
	binary.LittleEndian.PutUint32(params[8:], uint32(sc.PrivPages))
	binary.LittleEndian.PutUint32(params[12:], uint32(sc.FillerIter))
	diskFlag := uint32(0)
	if disk {
		diskFlag = 1
	}
	binary.LittleEndian.PutUint32(params[16:], diskFlag)
	binary.LittleEndian.PutUint32(params[20:], uint32(sc.CachePasses))
	r.WriteGuest(guest.ParamBase, params)
	cycles, err := r.RunUntilDone(1 << 40)
	if err != nil {
		return 0, 0, nil, err
	}
	var exits uint64
	if v := r.VCPU(); v != nil {
		exits = v.TotalExits()
	}
	rs.AddRun(r)
	return cycles, exits, r.Obs().Prof, nil
}

// RunFig5 reproduces Figure 5: the kernel-compilation workload across
// virtualization configurations on the Intel Core i7 and AMD Phenom
// models.
func RunFig5(sc Scale) (*Table, []Fig5Row, error) {
	var rows []Fig5Row
	add := func(group, label string, rel, paper float64, kind string, cy hw.Cycles, exits uint64) {
		rows = append(rows, Fig5Row{Group: group, Label: label, Relative: rel,
			Paper: paper, Kind: kind, Cycles: cy, Exits: exits})
	}

	type cfgSpec struct {
		group, label string
		paper        float64
		cfg          guest.RunnerConfig
		disk         bool
	}
	intel := []cfgSpec{
		{"EPT+VPID", "Native", 100,
			guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeNative}, true},
		{"EPT+VPID", "Direct", 99.4,
			guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeDirect, UseVPID: true, HostLargePages: true, DirectNoExits: true}, true},
		{"EPT+VPID", "NOVA", 99.2,
			guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, HostLargePages: true}, true},
		{"EPT w/o VPID", "NOVA", 97.7,
			guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: false, HostLargePages: true}, true},
		{"EPT small pages", "NOVA", 97.0,
			guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, HostLargePages: false}, true},
		{"Shadow paging", "NOVA", 72.3,
			guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtVTLB, UseVPID: true, HostLargePages: true}, true},
	}

	measured := map[string]Fig5Row{}
	var profSum *ProfSummary
	var nativeCycles hw.Cycles
	var vcycles uint64
	res := &Resources{}
	for _, s := range intel {
		cy, exits, pd, err := runCompileConfig(sc, s.cfg, s.disk, res)
		if err != nil {
			return nil, nil, fmt.Errorf("fig5 %s/%s: %w", s.group, s.label, err)
		}
		vcycles += uint64(cy)
		mergeProf(&profSum, pd)
		if s.label == "Native" {
			nativeCycles = cy
		}
		rel := float64(nativeCycles) / float64(cy) * 100
		add(s.group, s.label, rel, s.paper, "measured", cy, exits)
		measured[s.group+"/"+s.label] = rows[len(rows)-1]
	}

	// Modeled monolithic competitors: same measured exit stream, heavier
	// per-exit handling.
	model := func(group string, base Fig5Row, label string, extra hw.Cycles, paper float64) {
		cy := base.Cycles + hw.Cycles(base.Exits)*extra
		add(group, label, float64(nativeCycles)/float64(cy)*100, paper, "modeled", cy, base.Exits)
	}
	novaEPT := measured["EPT+VPID/NOVA"]
	model("EPT+VPID", novaEPT, "KVM", kvmExtraPerExit, 98.1)
	model("EPT+VPID", novaEPT, "Xen", xenExtraPerExit, 97.3)
	model("EPT+VPID", novaEPT, "ESXi", esxiExtraPerExit, 97.3)
	model("EPT+VPID", novaEPT, "Hyper-V", hypervExtraPerExit, 95.9)
	model("EPT w/o VPID", measured["EPT w/o VPID/NOVA"], "KVM", kvmExtraPerExit, 97.4)
	model("EPT small pages", measured["EPT small pages/NOVA"], "KVM", kvmExtraPerExit, 95.7)
	// KVM's shadow pager is more mature than NOVA's vTLB (the paper
	// measures KVM ahead here): model it with 25% cheaper fills.
	vtlb := measured["Shadow paging/NOVA"]
	kvmShadow := nativeCycles + (vtlb.Cycles-nativeCycles)*3/4 + hw.Cycles(vtlb.Exits)*kvmExtraPerExit
	add("Shadow paging", "KVM", float64(nativeCycles)/float64(kvmShadow)*100, 78.5, "modeled", kvmShadow, vtlb.Exits)

	// Paravirtualization context bars, anchored to the paper's numbers
	// (we virtualize fully; these are shown for completeness).
	add("Paravirt", "Xen PV", 96.5, 96.5, "anchor", 0, 0)
	add("Paravirt", "L4Linux", 88.0, 88.0, "anchor", 0, 0)

	// AMD Phenom set (NPT with ASIDs, 4M host pages, 2-level tables).
	amd := []cfgSpec{
		{"AMD NPT", "Native", 100,
			guest.RunnerConfig{Model: hw.K10, Mode: guest.ModeNative}, true},
		{"AMD NPT", "NOVA", 99.4,
			guest.RunnerConfig{Model: hw.K10, Mode: guest.ModeVirtEPT, UseVPID: true, HostLargePages: true}, true},
	}
	var amdNative hw.Cycles
	for _, s := range amd {
		cy, exits, pd, err := runCompileConfig(sc, s.cfg, s.disk, res)
		if err != nil {
			return nil, nil, fmt.Errorf("fig5 %s/%s: %w", s.group, s.label, err)
		}
		vcycles += uint64(cy)
		mergeProf(&profSum, pd)
		if s.label == "Native" {
			amdNative = cy
		}
		add(s.group, s.label, float64(amdNative)/float64(cy)*100, s.paper, "measured", cy, exits)
	}
	amdNova := rows[len(rows)-1]
	kvmAMD := amdNova.Cycles + hw.Cycles(amdNova.Exits)*kvmExtraPerExit
	add("AMD NPT", "KVM", float64(amdNative)/float64(kvmAMD)*100, 97.2, "modeled", kvmAMD, amdNova.Exits)

	t := &Table{
		Title:   "Figure 5: Linux kernel compilation, relative to native performance (%)",
		Columns: []string{"group", "config", "measured %", "paper %", "kind", "cycles", "exits"},
	}
	for _, r := range rows {
		paper := "-"
		if r.Paper > 0 {
			paper = f1(r.Paper)
		}
		t.Rows = append(t.Rows, []string{r.Group, r.Label, f1(r.Relative), paper, r.Kind, d(uint64(r.Cycles)), d(r.Exits)})
	}
	t.Notes = append(t.Notes,
		"measured = full stack executed; modeled = NOVA measurement + per-exit penalty constants; anchor = paper value shown for context",
		fmt.Sprintf("scale %q: %d timeslices of the synthetic compile (paper: full Linux build, ~470 s)", sc.Name, sc.Slices))
	t.Prof = profSum
	t.VirtualCycles = vcycles
	t.Resources = res
	return t, rows, nil
}
