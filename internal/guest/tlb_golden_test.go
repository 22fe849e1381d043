package guest

import (
	"fmt"
	"testing"

	"nova/internal/hw"
)

// tlbChurnKernel is a paging guest whose working set, 640 data pages,
// exceeds the 512-entry small-page TLB. Each pass reloads CR3, touches
// every page, then INVLPGs one page and touches it again, so the TLB
// sees evicting fills, FlushTag and FlushVA, and re-fills of flushed
// keys whose old fill positions decide the next victims.
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

// pageCrossKernel makes every data access straddle two pages: for 64
// page pairs it stores, loads, pushes and pops a dword at page offset
// 0xffe. It leaves a checksum of the values it read back at
// ProgressAddr (see pageCrossSum).
func pageCrossKernel() KernelOpts {
	const (
		dataVA = 0x100ffe
		pairs  = 64
	)
	return KernelOpts{
		Paging: true,
		MapMB:  4,
		Workload: fmt.Sprintf(`
	mov esi, %#[1]x
	mov ecx, %[2]d
	xor edx, edx
	mov ebp, esp
pc_pair:
	mov [esi], ecx
	add edx, [esi]
	lea esp, [esi+4]
	push edx
	pop eax
	add edx, eax
	mov esp, ebp
	add esi, 0x2000
	dec ecx
	jnz pc_pair
	mov [%#[3]x], edx
	jmp finish
`, dataVA, pairs, ProgressAddr),
	}
}

// pageCrossSum is the checksum pageCrossKernel computes when every
// split access reads back what was written.
func pageCrossSum() uint32 {
	var sum uint32
	for c := uint32(64); c > 0; c-- {
		sum = 2 * (sum + c)
	}
	return sum
}

// tlbGolden is what the golden tests pin: virtual cycles, the boot
// CPU's TLB statistics, and the vCPU's exits and vTLB fills (zero when
// native).
type tlbGolden struct {
	Cycles           hw.Cycles
	TLB              hw.TLBStats
	Exits, VTLBFills uint64
}

// The configurations the golden tables run: native, EPT with VPID on
// large host pages, EPT without VPID on small host pages, and vTLB.
var (
	goldenNative   = RunnerConfig{Model: hw.BLM, Mode: ModeNative}
	goldenEPT      = RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, HostLargePages: true}
	goldenEPTSmall = RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT}
	goldenVTLB     = RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB, UseVPID: true, HostLargePages: true}
)

// runGolden runs image to completion under cfg and returns its golden
// values and the runner.
func runGolden(t *testing.T, cfg RunnerConfig, image []byte) (tlbGolden, *Runner) {
	t.Helper()
	r, err := NewRunner(cfg, image)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := r.RunUntilDone(1 << 34)
	if err != nil {
		t.Fatal(err)
	}
	g := tlbGolden{Cycles: cycles, TLB: r.Plat.BootCPU().TLB.Stats}
	if v := r.VCPU(); v != nil {
		g.Exits, g.VTLBFills = v.TotalExits(), r.K.Stats.VTLBFills
	}
	return g, r
}

// checkGolden pins one row: a stepped run, with the decode cache off,
// must reproduce want exactly, and a fused run, the default, must
// reproduce it in every field but TLB hits. Hits count fetch
// translations, which a fused run does once per run instead of once
// per instruction; they are free, so no other field may move (DESIGN
// §3a). It returns the two runners, stepped first.
func checkGolden(t *testing.T, cfg RunnerConfig, image []byte, want tlbGolden) [2]*Runner {
	t.Helper()
	stepped := cfg
	stepped.DisableDecodeCache = true
	gs, rs := runGolden(t, stepped, image)
	if gs != want {
		t.Errorf("stepped:\ngot  %+v\nwant %+v", gs, want)
	}
	gf, rf := runGolden(t, cfg, image)
	t.Logf("TLB hits: %d stepped, %d fused", gs.TLB.Hits, gf.TLB.Hits)
	if gf.TLB.Hits > want.TLB.Hits {
		t.Errorf("fused: %d TLB hits, more than the stepped run's %d", gf.TLB.Hits, want.TLB.Hits)
	}
	gf.TLB.Hits = want.TLB.Hits
	if gf != want {
		t.Errorf("fused (hits not compared):\ngot  %+v\nwant %+v", gf, want)
	}
	return [2]*Runner{rs, rf}
}

// TestTLBEvictionGolden pins the virtual cycles, TLB statistics and
// exits of tlbChurnKernel in every paging mode. Under TLB pressure the
// victim order feeds every one of them, so a TLB whose eviction order
// differs from the reference model's (for instance one that forgets the
// fill positions of flushed entries) fails here even where the quick
// benchmark's workloads do not notice. The A/B matrix compares
// configurations of one commit; these rows pin each mode across
// commits, stepped and fused (see checkGolden).
func TestTLBEvictionGolden(t *testing.T) {
	image := MustBuild(tlbChurnKernel())
	for _, tc := range []struct {
		name string
		cfg  RunnerConfig
		want tlbGolden
	}{
		{"native", goldenNative, tlbGolden{
			Cycles: 159_444,
			TLB: hw.TLBStats{Hits: 38645, Misses: 2578, Fills: 2578, Evictions: 528,
				FlushAll: 7, FlushVA: 4, FlushedEnt: 1538},
		}},
		{"ept", goldenEPT, tlbGolden{
			Cycles: 992_670,
			TLB: hw.TLBStats{Hits: 93976, Misses: 2579, Fills: 2579, Evictions: 523,
				FlushTag: 8, FlushVA: 4, FlushedEnt: 1544},
			Exits: 11,
		}},
		{"ept-novpid-small", goldenEPTSmall, tlbGolden{
			Cycles: 994_876,
			TLB: hw.TLBStats{Hits: 93962, Misses: 2593, Fills: 2593, Evictions: 523,
				FlushAll: 22, FlushTag: 8, FlushVA: 4, FlushedEnt: 2070},
			Exits: 11,
		}},
		// In a VM the first translation flushes the domain's tag, still
		// empty then, because the vCPU has not seen the domain's memory
		// version yet. The EPT rows count that flush too.
		{"vtlb", goldenVTLB, tlbGolden{
			Cycles: 3_453_765,
			TLB: hw.TLBStats{Hits: 38647, Misses: 2576, Fills: 2576, Evictions: 523,
				FlushTag: 8, FlushVA: 4, FlushedEnt: 1541},
			Exits:     28,
			VTLBFills: 2574,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.cfg, image, tc.want)
		})
	}
}

// TestPageCrossGolden pins pageCrossKernel in every paging mode: each
// access that straddles a page is split into byte accesses, each of
// which translates (and may miss, walk or fill) on its own page. The
// checksum shows that every mode reads back what it wrote, stepped and
// fused (see checkGolden).
func TestPageCrossGolden(t *testing.T) {
	image := MustBuild(pageCrossKernel())
	for _, tc := range []struct {
		name string
		cfg  RunnerConfig
		want tlbGolden
	}{
		{"native", goldenNative, tlbGolden{
			Cycles: 22_507,
			TLB:    hw.TLBStats{Hits: 2613, Misses: 130, Fills: 130, FlushAll: 3},
		}},
		{"ept", goldenEPT, tlbGolden{
			Cycles: 92_685,
			TLB:    hw.TLBStats{Hits: 57942, Misses: 133, Fills: 133, FlushTag: 4, FlushedEnt: 3},
			Exits:  11,
		}},
		{"vtlb", goldenVTLB, tlbGolden{
			Cycles:    222_048,
			TLB:       hw.TLBStats{Hits: 2613, Misses: 130, Fills: 130, FlushTag: 4},
			Exits:     16,
			VTLBFills: 130,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range checkGolden(t, tc.cfg, image, tc.want) {
				if sum, want := r.ReadGuest32(ProgressAddr), pageCrossSum(); sum != want {
					t.Errorf("checksum = %#x, want %#x", sum, want)
				}
			}
		})
	}
}
