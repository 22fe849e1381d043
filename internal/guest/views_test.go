package guest

import (
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/stat"
	"nova/internal/trace"
	"nova/internal/x86"
)

// TestViewsAgree runs workloads with every sink attached and checks
// that the views of the recorded events agree: Kernel.Stats, the stat
// registry's metrics and the kind counts of an unwrapped ring, for VM
// exits by reason, IPC calls and replies, vTLB fills and flushes,
// injections and emulated instructions. Each view folds the same
// event, so they agree by construction; the two places where
// Kernel.Stats deliberately counts differently are pinned as explicit
// relations below.
func TestViewsAgree(t *testing.T) {
	compile := MustBuild(CompileKernel(667))
	cases := []struct {
		name   string
		cfg    RunnerConfig
		img    []byte
		params []uint32
	}{
		{"native-compute", RunnerConfig{Model: hw.BLM, Mode: ModeNative},
			MustBuild(ComputeKernelWithSwitches(true, false, 8)), []uint32{3, 64 << 10}},
		{"ept-compute", RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true},
			MustBuild(ComputeKernelWithSwitches(true, false, 8)), []uint32{3, 64 << 10}},
		{"vtlb-compile", RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB, WithDiskServer: true},
			compile, []uint32{4, 64, 16, 2000, 1}},
		{"ept-disk-boot", RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
			MustBuild(DiskChecksumKernel()), []uint32{8, 4, 2000}},
		{"direct-compile", RunnerConfig{Model: hw.BLM, Mode: ModeDirect, UseVPID: true, DirectNoExits: true},
			compile, []uint32{4, 64, 16, 2000, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.StatEpoch = stat.DefaultEpochLen
			cfg.ProfilePeriod = 10_000
			if cfg.Mode != ModeNative {
				cfg.TraceCapacity = 1 << 13 // checkViews fails if a ring wraps
				cfg.SpanCapacity = 4096
			}
			r, err := NewRunner(cfg, tc.img)
			if err != nil {
				t.Fatal(err)
			}
			r.Chunk = 100_000
			writeParams(r, tc.params...)
			var base hypervisor.Stats
			if r.K != nil {
				base = r.K.Stats // the sinks attach after machine construction
			}
			if _, err := r.RunUntilDone(20_000_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			snap := r.Obs().Stat
			metric := map[string]uint64{}
			for _, m := range snap.Metrics {
				metric[m.Name] = m.Total
			}
			if r.K == nil {
				for _, m := range snap.Metrics {
					if m.Kind != "sample" {
						t.Errorf("native run recorded %s = %d", m.Name, m.Total)
					}
				}
				return
			}
			checkViews(t, r, base, metric)
		})
	}
}

// checkViews compares one finished run's views; base is Kernel.Stats
// when the sinks attached.
func checkViews(t *testing.T, r *Runner, base hypervisor.Stats, metric map[string]uint64) {
	t.Helper()
	ks, v := r.K.Stats, r.VCPU()
	d := r.K.Tracer.Data()
	for cpu, over := range d.Overwritten {
		if over != 0 {
			t.Fatalf("cpu%d ring wrapped; the ring view needs the whole run", cpu)
		}
	}
	var kinds [trace.NumKinds]uint64
	var exits [x86.NumExitReasons]uint64
	var words, flushes, kernelInjects, directInjects uint64
	for _, e := range d.Events() {
		kinds[e.Kind]++
		switch e.Kind {
		case trace.KindVMExit:
			exits[e.A0]++
		case trace.KindIPCCall:
			words += e.A1
		case trace.KindVTLBFlush:
			if e.A0 != trace.CauseINVLPG {
				flushes++
			}
		case trace.KindInject:
			if e.A2 == 0 {
				kernelInjects++
			} else {
				directInjects++
			}
		}
	}
	vm := func(family string, kv ...string) uint64 {
		return metric[stat.Name(family, append([]string{"vm", "guest"}, kv...)...)]
	}
	agree := func(what string, views ...uint64) {
		t.Helper()
		for _, n := range views[1:] {
			if n != views[0] {
				t.Errorf("%s: views disagree: %v", what, views)
				return
			}
		}
	}

	names := x86.ExitReasonNames()
	var total uint64
	for reason, name := range names {
		agree("exits "+name, ks.VMExits[reason]-base.VMExits[reason],
			vm("kernel_vmexits", "vcpu", "0", "reason", name), exits[reason])
		total += exits[reason]
	}
	// Pinned relation: a guest #PF is forwarded into the guest without a
	// VM exit event, so the vCPU counts it as an exception exit while
	// Kernel.Stats counts it in GuestPageFault instead.
	agree("exception exits on the vCPU", v.Exits[x86.ExitException],
		ks.VMExits[x86.ExitException]+ks.GuestPageFault)
	agree("all exits", v.TotalExits()-ks.GuestPageFault, total)

	ipcCalls := metric[stat.Name("kernel_ipc_calls", "pd", "guest")] +
		metric[stat.Name("kernel_ipc_calls", "pd", "vmm-guest")]
	ipcWords := metric[stat.Name("kernel_ipc_words", "pd", "guest")] +
		metric[stat.Name("kernel_ipc_words", "pd", "vmm-guest")]
	agree("ipc calls", ks.IPCCalls-base.IPCCalls, ipcCalls, kinds[trace.KindIPCCall])
	agree("ipc words", ks.IPCWords-base.IPCWords, ipcWords, words)
	agree("ipc replies", metric["kernel_ipc_latency_cycles"], kinds[trace.KindIPCReply])

	agree("vtlb fills", ks.VTLBFills-base.VTLBFills, vm("kernel_vtlb_fills", "vcpu", "0"), kinds[trace.KindVTLBFill])
	agree("vtlb flushes", ks.VTLBFlushes-base.VTLBFlushes, vm("kernel_vtlb_flushes", "vcpu", "0"), flushes)

	// Pinned relation: a direct (exit-less) delivery reaches the trace
	// and the registry but is not a kernel injection; the event's A2
	// bit tells the two apart.
	agree("kernel injections", ks.Injections-base.Injections, kernelInjects)
	agree("all injections", vm("kernel_injections", "vcpu", "0"), v.InjectedIRQs,
		kinds[trace.KindInject], kernelInjects+directInjects)
	if r.Cfg.DirectNoExits && directInjects == 0 {
		t.Error("direct-delivery run delivered no interrupt directly")
	}

	agree("emulated instructions", r.VMM.Stats.Emulated, vm("vmm_emulated_instructions"), kinds[trace.KindEmulate])
	agree("host interrupts", ks.HostInterrupts-base.HostInterrupts, kinds[trace.KindHostIRQ])
	agree("recalls", ks.Recalls-base.Recalls, kinds[trace.KindRecall])
	t.Logf("%d exits, %d guest #PF, %d IPC calls, %d vTLB fills, %d flushes, %d+%d injections, %d emulated",
		total, ks.GuestPageFault, kinds[trace.KindIPCCall], kinds[trace.KindVTLBFill], flushes,
		kernelInjects, directInjects, kinds[trace.KindEmulate])
}
