package guest

import (
	"testing"

	"nova/internal/hw"
	"nova/internal/x86"
)

// runCompile executes the compile workload under one configuration.
func runCompile(t *testing.T, cfg RunnerConfig, slices, cache, priv, filler, disk uint32) (*Runner, hw.Cycles) {
	t.Helper()
	img := MustBuild(CompileKernel(667))
	switch cfg.Mode {
	case ModeVirtEPT, ModeVirtVTLB:
		cfg.WithDiskServer = disk != 0
	}
	r, err := NewRunner(cfg, img)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Mode, err)
	}
	writeParams(r, slices, cache, priv, filler, disk)
	cycles, err := r.RunUntilDone(20_000_000_000)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Mode, err)
	}
	if got := r.ReadGuest32(ProgressAddr); got != slices {
		t.Fatalf("%v: progress = %d, want %d", cfg.Mode, got, slices)
	}
	return r, cycles
}

func TestCompileWorkloadNative(t *testing.T) {
	r, cycles := runCompile(t, RunnerConfig{Model: hw.BLM, Mode: ModeNative}, 8, 128, 16, 2000, 1)
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	// Demand faults occurred and were handled inside the guest.
	if pf := r.ReadGuest32(ParamBase + 0x30); pf == 0 {
		t.Error("no guest demand faults")
	}
	// Disk reads happened.
	if r.Plat.AHCI.Stats.Commands == 0 {
		t.Error("no disk commands")
	}
}

// TestCompileKernelDropsNoDecodedPage pins why the decode cache pays
// off on the compile workload under EPT: the kernel's variables share a
// page with its code, and a store to them must leave the page's decodes
// alone. Only a store into cached code drops a decoded page, and the
// kernel never writes its own code.
func TestCompileKernelDropsNoDecodedPage(t *testing.T) {
	r, _ := runCompile(t, RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, HostLargePages: true}, 4, 128, 16, 2000, 1)
	c := r.VCPU().Interp.Cache
	if c.SB.Fused == 0 {
		t.Fatal("the decode cache's fused runs never ran")
	}
	if c.Dropped != 0 {
		t.Errorf("%d decoded pages dropped, want 0", c.Dropped)
	}
}

func TestCompileWorkloadRelativePerformance(t *testing.T) {
	// The Figure 5 ordering: native <= direct <= EPT << vTLB.
	const slices, cache, priv, filler, disk = 10, 256, 32, 20000, 0
	times := map[Mode]hw.Cycles{}
	var vtlbRunner *Runner
	for _, mode := range []Mode{ModeNative, ModeDirect, ModeVirtEPT, ModeVirtVTLB} {
		r, cy := runCompile(t, RunnerConfig{
			Model: hw.BLM, Mode: mode, UseVPID: true, HostLargePages: true,
			DirectNoExits: mode == ModeDirect,
		}, slices, cache, priv, filler, disk)
		times[mode] = cy
		if mode == ModeVirtVTLB {
			vtlbRunner = r
		}
	}
	t.Logf("native=%d direct=%d ept=%d vtlb=%d", times[ModeNative], times[ModeDirect], times[ModeVirtEPT], times[ModeVirtVTLB])
	if times[ModeDirect] < times[ModeNative] {
		t.Errorf("direct (%d) beat native (%d)", times[ModeDirect], times[ModeNative])
	}
	if times[ModeVirtEPT] < times[ModeDirect] {
		t.Errorf("EPT (%d) beat direct (%d)", times[ModeVirtEPT], times[ModeDirect])
	}
	// vTLB must be substantially slower (paper: ~72% of native perf).
	if float64(times[ModeVirtVTLB]) < float64(times[ModeVirtEPT])*1.1 {
		t.Errorf("vTLB (%d) not clearly slower than EPT (%d)", times[ModeVirtVTLB], times[ModeVirtEPT])
	}
	// EPT overhead over native should be small (paper: ~1%; allow 6%).
	over := float64(times[ModeVirtEPT])/float64(times[ModeNative]) - 1
	if over > 0.06 {
		t.Errorf("EPT overhead = %.1f%%, want small", over*100)
	}
	// And the vTLB exits are dominated by fills (Table 2).
	if vtlbRunner.K.Stats.VTLBFills == 0 || vtlbRunner.K.Stats.VTLBFlushes == 0 {
		t.Errorf("vTLB stats: fills=%d flushes=%d", vtlbRunner.K.Stats.VTLBFills, vtlbRunner.K.Stats.VTLBFlushes)
	}
}

func TestCompileEventDistribution(t *testing.T) {
	// Table 2's qualitative shape under EPT: port I/O is the most
	// frequent exit, followed by hardware interrupts; HLT is rare.
	r, _ := runCompile(t, RunnerConfig{
		Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, HostLargePages: true,
	}, 16, 128, 16, 8000, 1)
	v := r.VCPU()
	io := v.Exits[x86.ExitIO]
	ext := v.Exits[x86.ExitExternalInterrupt]
	mmio := v.Exits[x86.ExitEPTViolation]
	hlt := v.Exits[x86.ExitHLT]
	t.Logf("io=%d ext=%d mmio=%d hlt=%d inj=%d", io, ext, mmio, hlt, v.InjectedIRQs)
	if io == 0 || ext == 0 || mmio == 0 {
		t.Fatalf("missing event classes: io=%d ext=%d mmio=%d", io, ext, mmio)
	}
	if io <= ext {
		t.Errorf("port I/O (%d) should dominate external interrupts (%d)", io, ext)
	}
	if hlt > io {
		t.Errorf("hlt (%d) should be rare", hlt)
	}
	if v.InjectedIRQs == 0 {
		t.Error("no injections")
	}
}

func TestCompileVPIDEffect(t *testing.T) {
	// Without VPID the hardware TLB flushes on every transition,
	// costing refills (Figure 5's second group).
	const slices, cache, priv, filler = 8, 256, 16, 20000
	timesByVPID := map[bool]hw.Cycles{}
	for _, vpid := range []bool{true, false} {
		_, cy := runCompile(t, RunnerConfig{
			Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: vpid, HostLargePages: false,
		}, slices, cache, priv, filler, 0)
		timesByVPID[vpid] = cy
	}
	t.Logf("vpid=%d novpid=%d", timesByVPID[true], timesByVPID[false])
	if timesByVPID[false] <= timesByVPID[true] {
		t.Errorf("no-VPID (%d) not slower than VPID (%d)", timesByVPID[false], timesByVPID[true])
	}
}

func TestCompileHostPageSizeEffect(t *testing.T) {
	// Small host pages raise TLB pressure (Figure 5's third group).
	const slices, cache, priv, filler = 8, 1024, 16, 20000
	times := map[bool]hw.Cycles{}
	for _, large := range []bool{true, false} {
		_, cy := runCompile(t, RunnerConfig{
			Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, HostLargePages: large,
		}, slices, cache, priv, filler, 0)
		times[large] = cy
	}
	t.Logf("large=%d small=%d", times[true], times[false])
	if times[false] <= times[true] {
		t.Errorf("small host pages (%d) not slower than large (%d)", times[false], times[true])
	}
}
