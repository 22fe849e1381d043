package guest

import (
	"fmt"
	"testing"

	"nova/internal/hw"
)

// determinismRun boots one workload on a fresh platform and returns the
// final cycle count, the FNV hash of the full encoded trace (every
// event's kind, payload, virtual timestamp and sequence number) and the
// kernel's VM-exit count.
//
// This is the property the whole evaluation rests on — same inputs →
// identical virtual time — and the runtime counterpart of the nova-vet
// determinism analyzer: the analyzer forbids the *sources* of
// nondeterminism statically; this test detects any that slip through
// (map iteration feeding state, scheduling order drift, hidden
// wall-clock dependence).
func determinismRun(t *testing.T, cfg RunnerConfig, img []byte, params []uint32) (hw.Cycles, uint64, uint64) {
	t.Helper()
	cfg.TraceCapacity = 4096
	r, err := NewRunner(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, params...)
	cycles, err := r.RunUntilDone(10_000_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var exits uint64
	for _, n := range r.K.Stats.VMExits {
		exits += n
	}
	return cycles, fnvHash(r.Obs().Encode()), exits
}

// TestDeterministicBootDoubleRun boots the same guest workload twice on
// fresh platforms and requires bit-identical results: the same final
// cycle count and the same encoded-trace hash. It covers both paging
// modes and a disk-backed boot, the paths with the most asynchronous
// machinery (event queue, interrupt injection, DMA completions).
func TestDeterministicBootDoubleRun(t *testing.T) {
	cases := []struct {
		name   string
		cfg    RunnerConfig
		img    []byte
		params []uint32
	}{
		{
			name:   "ept-compute",
			cfg:    RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true},
			img:    MustBuild(ComputeKernelWithSwitches(true, false, 8)),
			params: []uint32{3, 64 << 10},
		},
		{
			name:   "vtlb-compute",
			cfg:    RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB},
			img:    MustBuild(ComputeKernelWithSwitches(true, false, 8)),
			params: []uint32{3, 64 << 10},
		},
		{
			name:   "ept-disk-boot",
			cfg:    RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
			img:    MustBuild(DiskChecksumKernel()),
			params: []uint32{8, 4, 2000},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, h1, n1 := determinismRun(t, tc.cfg, tc.img, tc.params)
			c2, h2, n2 := determinismRun(t, tc.cfg, tc.img, tc.params)
			if n1 == 0 {
				t.Fatal("the run took no VM exits; the workload did not exercise virtualization")
			}
			if c1 != c2 {
				t.Errorf("cycle counts differ between identical runs: %d vs %d (Δ=%d)", c1, c2, int64(c2)-int64(c1))
			}
			if n1 != n2 {
				t.Errorf("exit counts differ between identical runs: %d vs %d", n1, n2)
			}
			if h1 != h2 {
				t.Errorf("trace hashes differ between identical runs: %#x vs %#x", h1, h2)
			}
			t.Logf("%s: %d cycles, %d exits, trace %s", tc.name, c1, n1, fmt.Sprintf("%#x", h1))
		})
	}
}
