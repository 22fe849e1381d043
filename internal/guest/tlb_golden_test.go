package guest

import (
	"fmt"
	"testing"

	"nova/internal/hw"
)

// tlbChurnKernel is a shadow-paging guest whose working set, 640 data
// pages, exceeds the 512-entry small-page TLB. Each pass reloads CR3,
// touches every page, then INVLPGs one page and touches it again, so
// the TLB sees evicting fills, FlushTag and FlushVA, and re-fills of
// flushed keys whose old fill positions decide the next victims.
func tlbChurnKernel() KernelOpts {
	const (
		dataVA = 0x100000
		pages  = 640
		passes = 4
	)
	return KernelOpts{
		Paging: true,
		MapMB:  4,
		Workload: fmt.Sprintf(`
	mov dword [%#[1]x], 0
	xor edx, edx
tc_pass:
	mov eax, cr3
	mov cr3, eax
	mov esi, %#[2]x
	mov ecx, %[3]d
tc_touch:
	add edx, [esi]
	add esi, 4096
	dec ecx
	jnz tc_touch
	invlpg [%#[2]x + 8*4096]
	add edx, [%#[2]x + 8*4096]
	mov eax, [%#[1]x]
	inc eax
	mov [%#[1]x], eax
	cmp eax, %[4]d
	jb tc_pass
	jmp finish
`, ProgressAddr, dataVA, pages, passes),
	}
}

// TestTLBEvictionGolden pins the virtual cycles, TLB statistics and
// exits of tlbChurnKernel. Under TLB pressure the victim order feeds
// every one of them, so a TLB whose eviction order differs from the
// reference model's (for instance one that forgets the fill positions
// of flushed entries) fails here even where the quick benchmark's
// workloads do not notice.
func TestTLBEvictionGolden(t *testing.T) {
	r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB, UseVPID: true, HostLargePages: true},
		MustBuild(tlbChurnKernel()))
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := r.RunUntilDone(1 << 34)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		Cycles           hw.Cycles
		TLB              hw.TLBStats
		Exits, VTLBFills uint64
	}
	got := golden{cycles, r.Plat.BootCPU().TLB.Stats, r.VCPU().TotalExits(), r.K.Stats.VTLBFills}
	want := golden{
		Cycles: 3_453_765,
		TLB: hw.TLBStats{Hits: 5165, Misses: 2576, Fills: 2576, Evictions: 523,
			FlushTag: 7, FlushVA: 4, FlushedEnt: 1541},
		Exits:     28,
		VTLBFills: 2574,
	}
	if got != want {
		t.Errorf("got  %+v\nwant %+v", got, want)
	}
}
