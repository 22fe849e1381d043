package guest

import (
	"encoding/binary"
	"runtime"
	"testing"

	"nova/internal/hw"
	"nova/internal/x86"
)

// writeParams stores the workload parameter block.
func writeParams(r *Runner, params ...uint32) {
	b := make([]byte, len(params)*4)
	for i, p := range params {
		binary.LittleEndian.PutUint32(b[i*4:], p)
	}
	r.WriteGuest(ParamBase, b)
}

func TestComputeKernelNative(t *testing.T) {
	img := MustBuild(ComputeKernel(false, false, 0))
	r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: ModeNative}, img)
	if err != nil {
		t.Fatal(err)
	}
	writeParams(r, 3, 64<<10)
	cycles, err := r.RunUntilDone(2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadGuest32(ProgressAddr) != 3 {
		t.Errorf("progress = %d", r.ReadGuest32(ProgressAddr))
	}
	if cycles == 0 {
		t.Error("no time elapsed")
	}
}

func TestComputeKernelAllModes(t *testing.T) {
	img := MustBuild(ComputeKernelWithSwitches(true, false, 8))
	var times = map[Mode]hw.Cycles{}
	for _, mode := range []Mode{ModeNative, ModeDirect, ModeVirtEPT, ModeVirtVTLB} {
		r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: mode, UseVPID: true, HostLargePages: true}, img)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		r.Chunk = 100_000
		writeParams(r, 5, 256<<10)
		cycles, err := r.RunUntilDone(5_000_000_000)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := r.ReadGuest32(ProgressAddr); got != 5 {
			t.Errorf("%v: progress = %d", mode, got)
		}
		times[mode] = cycles
	}
	// Ordering: native fastest, vTLB slowest.
	if times[ModeVirtEPT] < times[ModeNative] {
		t.Errorf("EPT (%d) faster than native (%d)", times[ModeVirtEPT], times[ModeNative])
	}
	if times[ModeVirtVTLB] <= times[ModeVirtEPT] {
		t.Errorf("vTLB (%d) not slower than EPT (%d)", times[ModeVirtVTLB], times[ModeVirtEPT])
	}
}

func TestDiskReadVirtualizedEndToEnd(t *testing.T) {
	img := MustBuild(DiskChecksumKernel())
	r, err := NewRunner(RunnerConfig{
		Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	const startLBA, sectors, requests = 2000, 8, 4
	writeParams(r, sectors, requests, startLBA)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v (console %q)", err, r.VMM.Console())
	}

	// Checksum must match the disk's actual content.
	want := uint32(0)
	buf := make([]byte, sectors*requests*hw.SectorSize)
	if err := r.Plat.AHCI.Disk().ReadSectors(startLBA, sectors*requests, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i += 4 {
		want += binary.LittleEndian.Uint32(buf[i:])
	}
	// The guest summed per request over the same data.
	got := r.ReadGuest32(ParamBase + 12)
	if got != want {
		t.Errorf("guest checksum = %#x, want %#x", got, want)
	}

	// The data went through the real chain: vAHCI -> disk server ->
	// host AHCI -> DMA into guest memory.
	if r.DS.Stats.Requests != requests {
		t.Errorf("disk server requests = %d, want %d", r.DS.Stats.Requests, requests)
	}
	if r.Plat.AHCI.Stats.Commands < requests {
		t.Errorf("host AHCI commands = %d", r.Plat.AHCI.Stats.Commands)
	}
	v := r.VCPU()
	if v.Exits[x86.ExitEPTViolation] == 0 {
		t.Error("no MMIO exits recorded for the virtual controller")
	}
	if v.InjectedIRQs < requests {
		t.Errorf("injected vIRQs = %d, want >= %d", v.InjectedIRQs, requests)
	}
	if r.VMM.Stats.DiskRequests != requests {
		t.Errorf("vmm disk requests = %d", r.VMM.Stats.DiskRequests)
	}
}

func TestDiskReadDirectPassthrough(t *testing.T) {
	img := MustBuild(DiskChecksumKernel())
	r, err := NewRunner(RunnerConfig{
		Model: hw.BLM, Mode: ModeDirect, UseVPID: true,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	const startLBA, sectors, requests = 512, 4, 3
	writeParams(r, sectors, requests, startLBA)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatal(err)
	}
	want := uint32(0)
	buf := make([]byte, sectors*requests*hw.SectorSize)
	r.Plat.AHCI.Disk().ReadSectors(startLBA, sectors*requests, buf) //nolint:errcheck
	for i := 0; i < len(buf); i += 4 {
		want += binary.LittleEndian.Uint32(buf[i:])
	}
	if got := r.ReadGuest32(ParamBase + 12); got != want {
		t.Errorf("guest checksum = %#x, want %#x", got, want)
	}
	v := r.VCPU()
	// Direct assignment: no MMIO emulation exits, but interrupt
	// virtualization exits remain (§8.2).
	if v.Exits[x86.ExitEPTViolation] != 0 {
		t.Errorf("direct mode saw %d MMIO exits", v.Exits[x86.ExitEPTViolation])
	}
	if v.InjectedIRQs < requests {
		t.Errorf("injected vIRQs = %d", v.InjectedIRQs)
	}
	// DMA went through the IOMMU.
	if r.Plat.IOMMU.DMAPasses == 0 {
		t.Error("no IOMMU-translated DMA recorded")
	}
}

func TestDiskReadNative(t *testing.T) {
	img := MustBuild(DiskChecksumKernel())
	r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: ModeNative}, img)
	if err != nil {
		t.Fatal(err)
	}
	const startLBA, sectors, requests = 100, 4, 3
	writeParams(r, sectors, requests, startLBA)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatal(err)
	}
	want := uint32(0)
	buf := make([]byte, sectors*requests*hw.SectorSize)
	r.Plat.AHCI.Disk().ReadSectors(startLBA, sectors*requests, buf) //nolint:errcheck
	for i := 0; i < len(buf); i += 4 {
		want += binary.LittleEndian.Uint32(buf[i:])
	}
	if got := r.ReadGuest32(ParamBase + 12); got != want {
		t.Errorf("native checksum = %#x, want %#x", got, want)
	}
}

func TestDiskVirtualizationOverheadOrdering(t *testing.T) {
	// Figure 6's qualitative claim: native < direct < virtualized CPU
	// utilization for the same I/O workload.
	img := MustBuild(DiskReadKernel())
	util := map[Mode]float64{}
	for _, cfg := range []RunnerConfig{
		{Model: hw.BLM, Mode: ModeNative},
		{Model: hw.BLM, Mode: ModeDirect, UseVPID: true},
		{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
	} {
		r, err := NewRunner(cfg, img)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Mode, err)
		}
		writeParams(r, 8, 20, 4096)
		if _, err := r.RunUntilDone(50_000_000_000); err != nil {
			t.Fatalf("%v: %v", cfg.Mode, err)
		}
		util[cfg.Mode] = r.BusyFraction()
	}
	if !(util[ModeNative] < util[ModeDirect] && util[ModeDirect] < util[ModeVirtEPT]) {
		t.Errorf("utilization ordering violated: native=%.4f direct=%.4f virt=%.4f",
			util[ModeNative], util[ModeDirect], util[ModeVirtEPT])
	}
}

func TestDiskWriteReadVirtualized(t *testing.T) {
	img := MustBuild(DiskWriteReadKernel())
	for _, mode := range []Mode{ModeVirtEPT, ModeDirect, ModeNative} {
		cfg := RunnerConfig{Model: hw.BLM, Mode: mode, UseVPID: true}
		if mode == ModeVirtEPT {
			cfg.WithDiskServer = true
		}
		r, err := NewRunner(cfg, img)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		const sectors, lba = 16, 30000
		writeParams(r, sectors, 0, lba)
		if _, err := r.RunUntilDone(20_000_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if ok := r.ReadGuest32(ParamBase + 16); ok != 1 {
			t.Errorf("%v: write/read mismatch", mode)
		}
		// The data really reached the media.
		buf := make([]byte, sectors*hw.SectorSize)
		if err := r.Plat.AHCI.Disk().ReadSectors(lba, sectors, buf); err != nil {
			t.Fatal(err)
		}
		want := uint32(0x1337c0de)
		got := binary.LittleEndian.Uint32(buf)
		if got != want {
			t.Errorf("%v: media[0] = %#x, want %#x", mode, got, want)
		}
	}
}

// TestNewRunnerAllocatesLittle checks that building a machine does not
// pay for its 64 MiB of RAM up front (pages come with their first
// store), nor for one mapping node per page or port (root grants and
// delegations are runs).
func TestNewRunnerAllocatesLittle(t *testing.T) {
	img := MustBuild(CompileKernel(667))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true,
		HostLargePages: true, WithDiskServer: true}, img)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewRunner allocated %d KiB, want less than 1024", got>>10)
	}
}
