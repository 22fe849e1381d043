package stat

import (
	"strconv"

	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// The registry's event fold. Every push metric of the kernel, the VMMs
// and the device servers is derived here from the one event their probe
// recorded (trace.Kind payload layout), so the metrics agree with
// Kernel.Stats, the other whole-run fold, by construction. The tracer
// keeps no aggregate; the registry's histograms are the run's only
// exit, IPC and dispatch-wait latency distributions. Handles
// live in tables indexed by the dense PD and EC ids the events carry;
// names are formatted once, when an object is registered.

// pdMetrics is one protection domain's handles; vm is set for VM
// domains and indexed by the kind of the VMM or disk-server event.
type pdMetrics struct {
	name                           string
	hypercalls, ipcCalls, ipcWords Counter
	vm                             *[trace.NumAllKinds]Counter
	diskSectors, diskDMABytes      Counter
}

// vmFamilies names the per-VM counter each VMM or disk-server kind bumps.
var vmFamilies = []struct {
	kind          trace.Kind
	family, label string
}{
	{trace.KindEmulate, "vmm_emulated_instructions", "vm"},
	{trace.KindPIO, "vmm_pio", "vm"},
	{trace.KindMMIO, "vmm_mmio", "vm"},
	{trace.KindHalt, "vmm_hlts", "vm"},
	{trace.KindArmInject, "vmm_injections", "vm"},
	{trace.KindDiskRequest, "vmm_disk_requests", "vm"},
	{trace.KindBIOSCall, "vmm_bios_calls", "vm"},
	{trace.KindDiskIssue, "disk_server_requests", "client"},
}

// ecMetrics is one execution context's handles; the vCPU ones are zero
// (no-op) handles for threads.
type ecMetrics struct {
	pd                         *pdMetrics
	dispatches, ranCycles      Counter
	exits                      [x86.NumExitReasons]Counter
	exitLatency                Histogram
	fills, flushes, injections Counter
}

// foldState is the registry's fold-side state.
type foldState struct {
	pds       []*pdMetrics // by PD id
	ecs       []*ecMetrics // by EC id
	runqDepth []Gauge      // by CPU
	noEC      ecMetrics    // no-op target of events naming an unregistered EC

	ipcLatency, readyWait            Histogram
	diskIRQs, netIRQs, netPkts, netB Counter
}

func (r *Registry) initFold() {
	r.fold = foldState{
		ipcLatency: r.Histogram("kernel_ipc_latency_cycles"),
		readyWait:  r.Histogram("kernel_ready_wait_cycles"),
		diskIRQs:   r.Counter("disk_server_irqs"),
		netIRQs:    r.Counter("net_server_irqs"),
		netPkts:    r.Counter("net_server_delivered_packets"),
		netB:       r.Counter("net_server_delivered_bytes"),
	}
}

// grow extends a by-id table to hold index id.
func grow[T any](s []T, id int) []T {
	for len(s) <= id {
		var zero T
		s = append(s, zero)
	}
	return s
}

// AddCPU registers a CPU's ready-queue depth gauge.
func (r *Registry) AddCPU(cpu int) {
	if r == nil {
		return
	}
	r.fold.runqDepth = grow(r.fold.runqDepth, cpu)
	r.fold.runqDepth[cpu] = r.Gauge(Name("kernel_runq_depth", "cpu", strconv.Itoa(cpu)))
}

// AddPD registers a protection domain under its id. A VM domain also
// gets the per-VM VMM and disk-service counters, labelled by its name.
func (r *Registry) AddPD(id int, name string, isVM bool) {
	if r == nil || id < 0 {
		return
	}
	p := &pdMetrics{
		name:       name,
		hypercalls: r.Counter(Name("kernel_hypercalls", "pd", name)),
		ipcCalls:   r.Counter(Name("kernel_ipc_calls", "pd", name)),
		ipcWords:   r.Counter(Name("kernel_ipc_words", "pd", name)),
	}
	if isVM {
		p.vm = new([trace.NumAllKinds]Counter)
		for _, f := range vmFamilies {
			p.vm[f.kind] = r.Counter(Name(f.family, f.label, name))
		}
		p.diskSectors = r.Counter(Name("disk_server_sectors", "client", name))
		p.diskDMABytes = r.Counter(Name("disk_server_dma_bytes", "client", name))
	}
	r.fold.pds = grow(r.fold.pds, id)
	r.fold.pds[id] = p
}

// AddEC registers an execution context under its id, in the domain
// registered as pdID. vcpu is the virtual CPU index, or negative for a
// thread.
func (r *Registry) AddEC(id int, name string, pdID int, vcpu int) {
	if r == nil || id < 0 {
		return
	}
	e := &ecMetrics{
		pd:         r.pd(uint64(pdID)),
		dispatches: r.Counter(Name("kernel_sched_dispatches", "ec", name)),
		ranCycles:  r.Counter(Name("kernel_sched_cycles", "ec", name)),
	}
	if vcpu >= 0 && e.pd != nil {
		kv := []string{"vm", e.pd.name, "vcpu", strconv.Itoa(vcpu)}
		e.exitLatency = r.Histogram(Name("kernel_exit_latency_cycles", kv...))
		e.fills = r.Counter(Name("kernel_vtlb_fills", kv...))
		e.flushes = r.Counter(Name("kernel_vtlb_flushes", kv...))
		e.injections = r.Counter(Name("kernel_injections", kv...))
		for i, reason := range x86.ExitReasonNames() {
			e.exits[i] = r.Counter(Name("kernel_vmexits", append(kv, "reason", reason)...))
		}
	}
	r.fold.ecs = grow(r.fold.ecs, id)
	r.fold.ecs[id] = e
}

func (r *Registry) pd(id uint64) *pdMetrics {
	if id < uint64(len(r.fold.pds)) {
		return r.fold.pds[id]
	}
	return nil
}

func (r *Registry) ec(id uint64) *ecMetrics {
	if id < uint64(len(r.fold.ecs)) && r.fold.ecs[id] != nil {
		return r.fold.ecs[id]
	}
	return &r.fold.noEC
}

// Fold accounts one recorded event at virtual time now on cpu. ctx is
// the id of the EC dispatched on cpu when the event was recorded, or
// -1. User-level components run inline on the SC a vCPU donated for its
// VM exit, so that EC names the VM a VMM or disk-server event works for.
func (r *Registry) Fold(cpu int, now hw.Cycles, ctx int, k trace.Kind, a0, a1, a2, a3 uint64) {
	if r == nil {
		return
	}
	f := &r.fold
	switch k {
	case trace.KindHypercall:
		if p := r.pd(a0); p != nil {
			p.hypercalls.Add(now, 1)
		}
	case trace.KindIPCCall:
		if p := r.pd(a3); p != nil {
			p.ipcCalls.Add(now, 1)
			p.ipcWords.Add(now, a1)
		}
	case trace.KindIPCReply:
		f.ipcLatency.Observe(now, a1)
	case trace.KindSchedDispatch:
		r.ec(a0).dispatches.Add(now, 1)
		f.readyWait.Observe(now, a2)
		if cpu >= 0 && cpu < len(f.runqDepth) {
			f.runqDepth[cpu].Set(now, a3)
		}
	case trace.KindSchedRan:
		r.ec(a0).ranCycles.Add(now, a1)
	case trace.KindVMExit:
		if a0 < uint64(x86.NumExitReasons) {
			r.ec(a2).exits[a0].Add(now, 1)
		}
	case trace.KindVMResume:
		r.ec(a2).exitLatency.Observe(now, a1)
	case trace.KindVTLBFill:
		r.ec(a2).fills.Add(now, 1)
	case trace.KindVTLBFlush:
		if a0 != trace.CauseINVLPG {
			r.ec(a1).flushes.Add(now, 1)
		}
	case trace.KindInject:
		r.ec(a1).injections.Add(now, 1)
	case trace.KindDiskIRQ:
		f.diskIRQs.Add(now, 1)
	case trace.KindNetIRQ:
		f.netIRQs.Add(now, 1)
	case trace.KindNetRX:
		f.netPkts.Add(now, a1)
		f.netB.Add(now, a0*a1)
	default:
		if ctx < 0 {
			return
		}
		p := r.ec(uint64(ctx)).pd
		if p == nil || p.vm == nil || int(k) >= len(p.vm) {
			return
		}
		p.vm[k].Add(now, 1)
		if k == trace.KindDiskIssue {
			p.diskSectors.Add(now, a2)
			p.diskDMABytes.Add(now, a3>>8)
		}
	}
}
