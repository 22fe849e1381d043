package nova

// One testing.B benchmark per paper table/figure, plus substrate
// benchmarks for the simulator itself. Each reports the *simulated*
// cycle cost as a custom metric (sim-cycles/op) next to Go wall time.

import (
	"encoding/binary"
	"testing"

	"nova/internal/bench"
	"nova/internal/cap"
	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/tcb"
	"nova/internal/x86"
)

// BenchmarkFig1TCBCount measures the live TCB line count of Figure 1.
func BenchmarkFig1TCBCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tcb.CountRepo("."); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScale is a minimal workload for per-iteration figure runs.
func benchScale() bench.Scale {
	return bench.Scale{Name: "bench", Slices: 4, CachePages: 128, PrivPages: 8,
		FillerIter: 4000, DiskRequests: 4, Packets: 30}
}

// runCompileOnce executes one small compile-workload run and returns
// its simulated duration.
func runCompileOnce(b *testing.B, mode guest.Mode) hw.Cycles {
	b.Helper()
	img := guest.MustBuild(guest.CompileKernel(667))
	cfg := guest.RunnerConfig{Model: hw.BLM, Mode: mode, UseVPID: true, HostLargePages: true}
	r, err := guest.NewRunner(cfg, img)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	params := make([]byte, 24)
	binary.LittleEndian.PutUint32(params[0:], uint32(sc.Slices))
	binary.LittleEndian.PutUint32(params[4:], uint32(sc.CachePages))
	binary.LittleEndian.PutUint32(params[8:], uint32(sc.PrivPages))
	binary.LittleEndian.PutUint32(params[12:], uint32(sc.FillerIter))
	r.WriteGuest(guest.ParamBase, params)
	cy, err := r.RunUntilDone(1 << 40)
	if err != nil {
		b.Fatal(err)
	}
	return cy
}

// BenchmarkFig5CompileNative is the Figure 5 baseline configuration.
func BenchmarkFig5CompileNative(b *testing.B) {
	var cy hw.Cycles
	for i := 0; i < b.N; i++ {
		cy = runCompileOnce(b, guest.ModeNative)
	}
	b.ReportMetric(float64(cy), "sim-cycles/op")
}

// BenchmarkFig5CompileEPT is the Figure 5 NOVA EPT+VPID configuration.
func BenchmarkFig5CompileEPT(b *testing.B) {
	var cy hw.Cycles
	for i := 0; i < b.N; i++ {
		cy = runCompileOnce(b, guest.ModeVirtEPT)
	}
	b.ReportMetric(float64(cy), "sim-cycles/op")
}

// BenchmarkFig5CompileVTLB is the Figure 5 shadow-paging configuration.
func BenchmarkFig5CompileVTLB(b *testing.B) {
	var cy hw.Cycles
	for i := 0; i < b.N; i++ {
		cy = runCompileOnce(b, guest.ModeVirtVTLB)
	}
	b.ReportMetric(float64(cy), "sim-cycles/op")
}

// BenchmarkFig6DiskVirtualized runs the Figure 6 virtualized-disk path.
func BenchmarkFig6DiskVirtualized(b *testing.B) {
	img := guest.MustBuild(guest.DiskReadKernel())
	for i := 0; i < b.N; i++ {
		r, err := guest.NewRunner(guest.RunnerConfig{
			Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, WithDiskServer: true,
		}, img)
		if err != nil {
			b.Fatal(err)
		}
		params := make([]byte, 24)
		binary.LittleEndian.PutUint32(params[0:], 8)
		binary.LittleEndian.PutUint32(params[4:], 4)
		binary.LittleEndian.PutUint32(params[8:], 4096)
		r.WriteGuest(guest.ParamBase, params)
		if _, err := r.RunUntilDone(1 << 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PacketReceive runs the Figure 7 direct-NIC path.
func BenchmarkFig7PacketReceive(b *testing.B) {
	img := guest.MustBuild(guest.UDPReceiveKernel())
	for i := 0; i < b.N; i++ {
		r, err := guest.NewRunner(guest.RunnerConfig{
			Model: hw.BLM, Mode: guest.ModeDirect, UseVPID: true,
		}, img)
		if err != nil {
			b.Fatal(err)
		}
		params := make([]byte, 4)
		binary.LittleEndian.PutUint32(params, 30)
		r.WriteGuest(guest.ParamBase, params)
		if err := r.RunUntilGuest32(guest.RxReadyAddr, 1, 1<<32); err != nil {
			b.Fatal(err)
		}
		src := hw.NewPacketSource(r.Plat.NIC, r.Plat.Queue, r.Clock().Now,
			r.Plat.Cost.FreqMHz, 1472, 124, 30)
		src.Start()
		if _, err := r.RunUntilDone(1 << 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8IPC measures one portal call+reply (the Figure 8
// primitive) and reports the simulated cycle cost.
func BenchmarkFig8IPC(b *testing.B) {
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 32 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	client, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "client", false)
	server, _ := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "server", false)
	srvSel := server.Caps.AllocSel()
	if _, err := k.CreatePortal(server, srvSel, "bench", 0, 0,
		func(m *hypervisor.UTCB) error { return nil }); err != nil {
		b.Fatal(err)
	}
	if err := server.Caps.Delegate(srvSel, client.Caps, 100, cap.RightCall); err != nil {
		b.Fatal(err)
	}
	msg := &hypervisor.UTCB{Words: []uint64{1, 2}}
	start := k.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Call(client, 100, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k.Now()-start)/float64(b.N), "sim-cycles/op")
}

// BenchmarkFig9VTLBMiss measures the shadow-paging miss path on the
// Core i7 with VPID (the Figure 9 primitive).
func BenchmarkFig9VTLBMiss(b *testing.B) {
	img := guest.MustBuild(guest.ComputeKernelWithSwitches(true, false, 8))
	r, err := guest.NewRunner(guest.RunnerConfig{
		Model: hw.BLM, Mode: guest.ModeVirtVTLB, UseVPID: true, SchedTimerHz: -1,
	}, img)
	if err != nil {
		b.Fatal(err)
	}
	params := make([]byte, 8)
	binary.LittleEndian.PutUint32(params[0:], 1<<30) // effectively endless
	binary.LittleEndian.PutUint32(params[4:], 256<<10)
	r.WriteGuest(guest.ParamBase, params)
	b.ResetTimer()
	fills0 := r.K.Stats.VTLBFills
	start := r.Clock().Now()
	for r.K.Stats.VTLBFills-fills0 < uint64(b.N) {
		r.K.Run(r.Clock().Now() + 500_000)
	}
	fills := r.K.Stats.VTLBFills - fills0
	b.ReportMetric(float64(r.Clock().Now()-start)/float64(fills), "sim-cycles/fill")
}

// BenchmarkTab2EventCollection runs the Table 2 collection path.
func BenchmarkTab2EventCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCompileOnce(b, guest.ModeVirtEPT)
	}
}

// ---- substrate benchmarks ----

// BenchmarkInterpreter measures raw guest instruction throughput.
func BenchmarkInterpreter(b *testing.B) {
	img := guest.MustBuild(guest.ComputeKernel(false, false, 0))
	r, err := guest.NewRunner(guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeNative}, img)
	if err != nil {
		b.Fatal(err)
	}
	params := make([]byte, 8)
	binary.LittleEndian.PutUint32(params[0:], 1<<30)
	binary.LittleEndian.PutUint32(params[4:], 64<<10)
	r.WriteGuest(guest.ParamBase, params)
	b.ResetTimer()
	ret0 := r.BM.Interp.InstRet
	for r.BM.Interp.InstRet-ret0 < uint64(b.N) {
		if err := r.BM.Run(r.Clock().Now() + 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BM.Interp.InstRet-ret0)/float64(b.N), "guest-insts/op")
}

// BenchmarkStepHotLoop measures the interpreter's hot loop fused, with
// the decoded-instruction cache and its fused runs, against bare
// stepping with the cache off. The two configurations must produce
// bit-identical simulation results (enforced by
// TestDecodeCacheABIdentity); only host ns/op may differ.
func BenchmarkStepHotLoop(b *testing.B) {
	for _, tc := range []struct {
		name     string
		disabled bool
	}{
		{"fused", false},
		{"bare", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchHotLoop(b, guest.RunnerConfig{
				Model: hw.BLM, Mode: guest.ModeNative, DisableDecodeCache: tc.disabled,
			})
		})
	}
}

// benchHotLoop drives the compute kernel's hot loop natively until b.N
// guest instructions have retired under the given interpreter config.
func benchHotLoop(b *testing.B, cfg guest.RunnerConfig) {
	img := guest.MustBuild(guest.ComputeKernel(false, false, 0))
	r, err := guest.NewRunner(cfg, img)
	if err != nil {
		b.Fatal(err)
	}
	params := make([]byte, 8)
	binary.LittleEndian.PutUint32(params[0:], 1<<30)
	binary.LittleEndian.PutUint32(params[4:], 64<<10)
	r.WriteGuest(guest.ParamBase, params)
	b.ResetTimer()
	ret0 := r.BM.Interp.InstRet
	for r.BM.Interp.InstRet-ret0 < uint64(b.N) {
		if err := r.BM.Run(r.Clock().Now() + 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BM.Interp.InstRet-ret0)/float64(b.N), "guest-insts/op")
}

// BenchmarkAssembler measures kernel image assembly.
func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guest.MustBuild(guest.CompileKernel(667))
	}
}

// BenchmarkDecoder measures raw instruction decode throughput.
func BenchmarkDecoder(b *testing.B) {
	code := x86.MustAssemble("bits 32\nmov eax, [ebx+esi*4+16]\nadd eax, 42\njnz .x\n.x: nop")
	_ = code
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &byteSliceFetcher{b: code}
		for f.i < len(code) {
			if _, err := x86.Decode(f, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}

type byteSliceFetcher struct {
	b []byte
	i int
}

func (s *byteSliceFetcher) FetchByte() (byte, error) {
	if s.i >= len(s.b) {
		return 0, x86.PageFault(uint32(s.i), false, false, false)
	}
	c := s.b[s.i]
	s.i++
	return c, nil
}
