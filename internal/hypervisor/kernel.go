package hypervisor

import (
	"errors"
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/span"
	"nova/internal/stat"
	"nova/internal/trace"
	"nova/internal/x86"
)

// PagingMode selects how a VM's memory is virtualized (§5.3).
type PagingMode int

// Memory virtualization modes.
const (
	// ModeEPT uses hardware nested paging: the MMU walks guest and host
	// page tables in hardware; no paging-related VM exits.
	ModeEPT PagingMode = iota
	// ModeVTLB uses shadow page tables maintained by the
	// microhypervisor; guest page faults, CR writes and INVLPG trap.
	ModeVTLB
)

func (m PagingMode) String() string {
	if m == ModeVTLB {
		return "vtlb"
	}
	return "ept"
}

// Stats aggregates kernel activity across all domains. All fields but
// GuestPageFault and Preemptions (facts without an event) are folded
// from the recorded events.
type Stats struct {
	Hypercalls     uint64
	IPCCalls       uint64
	IPCWords       uint64
	VMExits        [x86.NumExitReasons]uint64
	VTLBFills      uint64
	VTLBFlushes    uint64
	GuestPageFault uint64 // guest-visible #PF forwarded into the guest
	HostInterrupts uint64
	Injections     uint64
	Recalls        uint64
	Preemptions    uint64
	ContextSwitch  uint64
}

// Config selects global kernel options.
type Config struct {
	// UseVPID enables tagged-TLB use on VM transitions when the CPU
	// supports it (Figure 5's "EPT with/without VPID" comparison).
	UseVPID bool
	// MTDOptimization, when false, transfers the full state on every VM
	// exit instead of the portal's minimal MTD (ablation of §5.2).
	DisableMTDOpt bool
	// DirectSwitch, when false, routes every portal call through the
	// scheduler instead of switching directly on the donated SC
	// (ablation of the SC-donation design).
	DisableDirectSwitch bool
	// DisableVTLBTrick makes the vTLB fill walk the guest page table
	// without running on the VM's host page table (§5.3's trick): every
	// guest level then costs an extra software GPA->HPA translation.
	DisableVTLBTrick bool
	// DisableDecodeCache turns off the host-side decoded-instruction
	// cache of the guest interpreter, and with it fused runs
	// (x86.StepBlock): every instruction is single-stepped. This is NOT
	// an ablation: the cache must not change simulated cycles, traces
	// or guest state by a single bit (the A/B matrix runs both
	// settings); the switch exists for that harness and for debugging.
	DisableDecodeCache bool
}

// Kernel is the microhypervisor instance for one platform.
type Kernel struct {
	Plat *hw.Platform
	Cfg  Config

	Root *PD

	pds  []*PD
	ecs  []*EC
	next cap.Selector // simple allocator for root caps

	runq    []*runqueue // per CPU
	current []*EC       // per CPU
	cpu     int         // CPU whose run loop is active

	// Interrupt routing: line → semaphore (driver) or vCPU injection.
	gsiSem  map[int]*Semaphore
	gsiVCPU map[int]*gsiRoute

	nextTag hw.TLBTag

	Stats Stats

	// Killed records VMs terminated by the kernel with their reasons
	// (the isolation scenarios of §4.2 assert on this).
	Killed []string

	// GuestOwnsPIC is set for the §8.1 "Direct" measurement setup where
	// a no-exit guest drives the platform interrupt controller itself;
	// the kernel then keeps its hands off pending interrupts.
	GuestOwnsPIC bool

	// preempt is set when a wakeup makes a higher-priority SC runnable
	// so the inner execution loops return to the scheduler.
	preempt bool

	// Tracer, when set, observes kernel events (VM exits, IPC,
	// scheduling, semaphores, vTLB maintenance) in dispatch order. All
	// emission is nil-safe and never charges cycles: tracing must not
	// perturb the simulation. The determinism regression test hashes
	// the event rings: two runs from identical inputs must produce
	// byte-identical traces, not merely identical aggregate counts.
	Tracer *trace.Tracer

	// Prof, when set, samples guest execution on the virtual-time grid
	// and receives exact-cost attributions for VM exits, vTLB fills and
	// emulated instructions. Same zero-perturbation contract as Tracer:
	// all recording is nil-safe, charges nothing, and two profiled runs
	// of the same workload must produce byte-identical profiles.
	Prof *prof.Profiler

	// Stat, when set, aggregates per-object resource accounting
	// (exits, IPC, vTLB activity, scheduler consumption) into
	// virtual-time epochs, folded from the recorded events. Same
	// zero-perturbation contract as Tracer and Prof: all recording is
	// nil-safe, charges nothing, and two accounted runs of the same
	// workload produce byte-identical snapshots.
	Stat *stat.Registry

	// Spans, when set, records request-scoped causal spans: a span ID is
	// assigned at each request origin (vAHCI doorbell, NIC RX harvest,
	// BIOS INT13, standalone portal calls) and every component boundary
	// the request crosses records a critical-path segment transition.
	// Same zero-perturbation contract as Tracer/Prof/Stat: recording is
	// nil-safe, charges nothing, and two span-recorded runs of the same
	// workload produce byte-identical span sections.
	Spans *span.Recorder

	// Kernel-object identity counters: every PD, EC and semaphore gets
	// a small dense id and every portal a uid, so trace events can name
	// objects without carrying pointers.
	nextPDID  int
	nextECID  int
	nextSemID int
	nextPtUID uint64
}

type gsiRoute struct {
	ec     *EC
	vector uint8
}

// maxGSI bounds the global system interrupt space (one x86 vector
// byte). DestroyPD walks this range to tear down routes into a dead
// domain without iterating the route maps.
const maxGSI = 256

// New creates a kernel on the platform, claims the hypervisor's own
// resources, and creates the root PD holding capabilities for
// everything else (§6).
func New(plat *hw.Platform, cfg Config) *Kernel {
	k := &Kernel{
		Plat:    plat,
		Cfg:     cfg,
		gsiSem:  make(map[int]*Semaphore),
		gsiVCPU: make(map[int]*gsiRoute),
		nextTag: 1,
	}
	for range plat.CPUs {
		k.runq = append(k.runq, newRunqueue())
		k.current = append(k.current, nil)
	}

	// The hypervisor claims its own memory (the first 1 MiB of host
	// RAM in this model) and the security-critical devices (interrupt
	// controllers, IOMMU); everything else goes to the root PD.
	const hvReserved = 1 << 20
	if plat.IOMMU != nil {
		plat.IOMMU.BlockRange(0, hvReserved)
	}

	root := &PD{
		Name: "root",
		ID:   k.allocPDID(),
		Caps: cap.NewSpace("root"),
		Mem:  cap.NewMemSpace("root"),
		IO:   cap.NewIOSpace("root"),
		Tag:  0,
	}
	rootPages := int((plat.Mem.Size() - hvReserved) / hw.PageSize)
	if err := root.Mem.InsertRoot(hvReserved/hw.PageSize, hvReserved/hw.PageSize, rootPages, cap.RightRead|cap.RightWrite|cap.RightExec); err != nil {
		// invariant: boot-time construction of the root PD over an empty
		// memory space cannot overlap; a failure here means the platform
		// geometry itself is broken, before any user domain exists.
		panic(fmt.Sprintf("hypervisor: root memory: %v", err))
	}
	root.IO.InsertRoot(0, 0xffff)
	// Device MMIO windows are delegatable resources too (direct device
	// assignment maps them into a VM's guest-physical space).
	for _, w := range []struct {
		base hw.PhysAddr
		size uint64
	}{
		{hw.AHCIMMIOBase, hw.AHCIMMIOSize},
		{hw.NICMMIOBase, hw.NICMMIOSize},
	} {
		if err := root.Mem.InsertRoot(uint32(w.base>>12), uint64(w.base)>>12, int(w.size/hw.PageSize), cap.RightRead|cap.RightWrite); err != nil {
			// invariant: the MMIO windows are fixed platform constants
			// disjoint from RAM; still boot time, no user domains yet.
			panic(fmt.Sprintf("hypervisor: device windows: %v", err))
		}
	}
	k.Root = root
	k.pds = append(k.pds, root)

	plat.InterruptHook = func() { /* polled by the run loop */ }

	// Initialize the host PIC the way the kernel's platform driver
	// would: vectors 0x20/0x28, everything unmasked.
	pic := plat.PIC
	pic.PortWrite(0x20, 1, 0x11)
	pic.PortWrite(0x21, 1, 0x20)
	pic.PortWrite(0x21, 1, 0x04)
	pic.PortWrite(0x21, 1, 0x01)
	pic.PortWrite(0xa0, 1, 0x11)
	pic.PortWrite(0xa1, 1, 0x28)
	pic.PortWrite(0xa1, 1, 0x02)
	pic.PortWrite(0xa1, 1, 0x01)
	pic.PortWrite(0x21, 1, 0x00)
	pic.PortWrite(0xa1, 1, 0x00)

	return k
}

// allocPDID/allocECID/allocSemID/allocPtUID hand out trace identities.
func (k *Kernel) allocPDID() int     { id := k.nextPDID; k.nextPDID++; return id }
func (k *Kernel) allocECID() int     { id := k.nextECID; k.nextECID++; return id }
func (k *Kernel) allocSemID() int    { id := k.nextSemID; k.nextSemID++; return id }
func (k *Kernel) allocPtUID() uint64 { id := k.nextPtUID; k.nextPtUID++; return id }

// CurCPU returns the CPU whose run loop is active, for span recording
// from user-level components (VMM, servers) running on it.
func (k *Kernel) CurCPU() int { return k.cpu }

// Record is the one probe of the kernel, the VMMs and the device
// servers: each observable fact is one call, with the trace.Kind
// payload layout, at the active CPU's virtual time. Stats,
// stat.Registry.Fold and the profiler's profFold each fold the event
// once, and Tracer.Emit puts it on the ring.
//
// nocharge: observability; recording must not move the clocks.
func (k *Kernel) Record(kind trace.Kind, a0, a1, a2, a3 uint64) {
	cur := k.current[k.cpu]
	k.fold(cur, kind, a0, a1, a2)
	now := k.Now()
	k.Tracer.Emit(k.cpu, now, kind, a0, a1, a2, a3)
	if k.Stat != nil {
		ctx := -1
		if cur != nil {
			ctx = cur.ID
		}
		k.Stat.Fold(k.cpu, now, ctx, kind, a0, a1, a2, a3)
	}
	if k.Prof != nil {
		k.profFold(cur, kind, a0, a1, a2)
	}
}

// fold counts one event in Stats and in the counters of the vCPU it
// names; cur is the EC dispatched on the recording CPU, which is the
// exiting or interrupted vCPU for exit and injection events. A semaphore
// down is a hypercall, thread dispatches and cross-AS portal calls and
// replies are context switches, INVLPG prunes are not flushes, and
// direct (exit-less) deliveries are not kernel injections.
func (k *Kernel) fold(cur *EC, kind trace.Kind, a0, a1, a2 uint64) {
	s := &k.Stats
	switch kind {
	case trace.KindHypercall, trace.KindSemDown:
		s.Hypercalls++
	case trace.KindIPCCall:
		s.IPCCalls++
		s.IPCWords += a1
		s.ContextSwitch += a2
	case trace.KindIPCReply:
		s.ContextSwitch += a2
	case trace.KindSchedDispatch:
		if cur != nil && cur.Kind == ECThread {
			s.ContextSwitch++
		}
	case trace.KindVMExit:
		if a0 < uint64(len(s.VMExits)) {
			s.VMExits[a0]++
			if v := cur.vcpuNamed(a2); v != nil {
				v.Exits[a0]++
			}
		}
	case trace.KindVTLBFill:
		s.VTLBFills++
	case trace.KindVTLBFlush:
		if a0 != trace.CauseINVLPG {
			s.VTLBFlushes++
		}
	case trace.KindHostIRQ:
		s.HostInterrupts++
	case trace.KindInject:
		if a2 == 0 {
			s.Injections++
		}
		if v := cur.vcpuNamed(a1); v != nil {
			v.InjectedIRQs++
		}
	case trace.KindRecall:
		s.Recalls++
	default:
		// The other kinds have no kernel counter.
	}
}

// clock returns the active CPU's clock.
func (k *Kernel) clock() *hw.Clock { return &k.Plat.CPUs[k.cpu].Clock }

// charge accounts kernel work on the active CPU.
func (k *Kernel) charge(n hw.Cycles) { k.clock().Charge(n) }

// Now returns the active CPU's time.
func (k *Kernel) Now() hw.Cycles { return k.clock().Now() }

// ChargeUser accounts user-level compute time (VMM emulation, device
// model updates, server work) on the active CPU. In a real system this
// time passes implicitly while the component executes; in the
// simulation the components are Go code and declare their modeled cost.
func (k *Kernel) ChargeUser(n hw.Cycles) { k.charge(n) }

// StartSchedulingTimer programs the host PIT as the microhypervisor's
// preemption timer (§4: "the microhypervisor drives the interrupt
// controllers of the platform and a scheduling timer"). Each tick that
// lands while a guest runs costs an external-interrupt VM exit — the
// "Hardware Interrupts" row of Table 2.
//
// nocharge: boot-time configuration, before measured windows open; the
// recurring cost appears as the per-tick VM exits it provokes.
func (k *Kernel) StartSchedulingTimer(hz int) {
	reload := hw.PITInputHz / hz
	if reload > 0xffff {
		reload = 0xffff
	}
	pit := k.Plat.PIT
	pit.PortWrite(0x43, 1, 0x34)
	pit.PortWrite(0x40, 1, uint32(reload&0xff))
	pit.PortWrite(0x40, 1, uint32(reload>>8))
}

// tagged reports whether VM transitions keep TLB contents (VPID).
func (k *Kernel) tagged() bool { return k.Cfg.UseVPID && k.Plat.Cost.HasVPID }

// Errors of the hypercall layer.
var (
	ErrVMNoHypercalls = errors.New("hypervisor: VMs cannot perform hypercalls")
	ErrBadCPU         = errors.New("hypervisor: invalid CPU")
	ErrBadGSI         = errors.New("hypervisor: interrupt line out of range")
	ErrDead           = errors.New("hypervisor: object destroyed")
)

// syscallEnter charges the user→kernel transition of a hypercall and
// enforces that virtual machines never reach the hypercall layer.
func (k *Kernel) syscallEnter(caller *PD) error {
	if caller.IsVM {
		return ErrVMNoHypercalls
	}
	k.Record(trace.KindHypercall, uint64(caller.ID), 0, 0, 0)
	k.charge(k.Plat.Cost.SyscallEntryExit)
	return nil
}

// CreatePD creates a protection domain. The creator receives the PD
// capability at sel in its capability space with full rights; by
// delegating it (with reduced rights) the creator implements its
// resource policy (§6).
func (k *Kernel) CreatePD(caller *PD, sel cap.Selector, name string, isVM bool) (*PD, error) {
	if err := k.syscallEnter(caller); err != nil {
		return nil, err
	}
	pd := &PD{
		Name: name,
		ID:   k.allocPDID(),
		Caps: cap.NewSpace(name),
		Mem:  cap.NewMemSpace(name),
		IO:   cap.NewIOSpace(name),
		IsVM: isVM,
		Tag:  k.nextTag,
	}
	k.nextTag++
	if err := caller.Caps.Insert(sel, pd, cap.RightsAll); err != nil {
		return nil, err
	}
	// caphold: kernel PD registry for domain accounting; DestroyPD marks entries dead; teardown=DestroyPD
	k.pds = append(k.pds, pd)
	if k.Stat != nil {
		k.attachStatPD(pd)
	}
	return pd, nil
}

// CreateEC creates an execution context in pd on the given CPU. For
// thread ECs, run is the body invoked when the EC is dispatched after a
// wakeup. For vCPUs, use CreateVCPU.
func (k *Kernel) CreateEC(caller *PD, sel cap.Selector, pd *PD, cpu int, name string, run func()) (*EC, error) {
	if err := k.syscallEnter(caller); err != nil {
		return nil, err
	}
	if _, err := caller.Caps.LookupObj(pd, cap.ObjPD, cap.RightCtrl); err != nil {
		return nil, err
	}
	if cpu < 0 || cpu >= len(k.Plat.CPUs) {
		return nil, ErrBadCPU
	}
	ec := &EC{Name: name, ID: k.allocECID(), PD: pd, CPU: cpu, Kind: ECThread, UTCB: &UTCB{}, Run: run}
	if err := caller.Caps.Insert(sel, ec, cap.RightsAll); err != nil {
		return nil, err
	}
	// caphold: kernel EC registry, walked to kill a domain's ECs; teardown=DestroyPD
	k.ecs = append(k.ecs, ec)
	if k.Stat != nil {
		k.attachStatEC(ec)
	}
	return ec, nil
}

// CreateVCPU creates a virtual-CPU execution context in a VM domain.
// The paging mode selects EPT or vTLB memory virtualization. index is
// the virtual CPU number; its VM-exit portals live at
// PortalSelectorFor(reason, index).
func (k *Kernel) CreateVCPU(caller *PD, sel cap.Selector, vm *PD, cpu int, name string, mode PagingMode, index int) (*EC, error) {
	if err := k.syscallEnter(caller); err != nil {
		return nil, err
	}
	if _, err := caller.Caps.LookupObj(vm, cap.ObjPD, cap.RightCtrl); err != nil {
		return nil, err
	}
	if cpu < 0 || cpu >= len(k.Plat.CPUs) {
		return nil, ErrBadCPU
	}
	if !vm.IsVM {
		return nil, fmt.Errorf("hypervisor: %s is not a VM domain", vm.Name)
	}
	ec := &EC{Name: name, ID: k.allocECID(), PD: vm, CPU: cpu, Kind: ECVCPU, UTCB: &UTCB{}}
	v := &VCPU{Index: index}
	v.State.Reset()
	ic := x86.FullVirt()
	if mode == ModeVTLB {
		ic = x86.VTLBVirt()
		v.Shadow = NewShadowPT()
	}
	v.Interp = x86.NewInterp(newVCPUEnv(k, ec, v), &v.State, ic)
	if !k.Cfg.DisableDecodeCache {
		v.Interp.Cache = x86.NewDecodeCache()
	}
	v.Interp.TSC = func() uint64 { return uint64(k.Plat.CPUs[cpu].Clock.Now()) }
	ec.VCPU = v
	if k.Prof != nil {
		k.attachProfReader(ec)
	}
	if err := caller.Caps.Insert(sel, ec, cap.RightsAll); err != nil {
		return nil, err
	}
	// caphold: kernel EC registry, walked to kill a domain's ECs; teardown=DestroyPD
	k.ecs = append(k.ecs, ec)
	if k.Stat != nil {
		k.attachStatEC(ec)
	}
	return ec, nil
}

// CreateSC creates a scheduling context attached to ec and enqueues it.
func (k *Kernel) CreateSC(caller *PD, sel cap.Selector, ec *EC, priority int, quantum hw.Cycles) (*SC, error) {
	if err := k.syscallEnter(caller); err != nil {
		return nil, err
	}
	if _, err := caller.Caps.LookupObj(ec, cap.ObjEC, cap.RightCtrl); err != nil {
		return nil, err
	}
	sc := &SC{Name: ec.Name, Priority: priority, Quantum: quantum, Left: quantum, EC: ec}
	if err := caller.Caps.Insert(sel, sc, cap.RightsAll); err != nil {
		return nil, err
	}
	ec.SC = sc
	if ec.Kind == ECVCPU {
		ec.runnable = true
		k.enqueue(sc)
	}
	return sc, nil
}

// CreatePortal creates a portal into caller's domain. For VM-exit
// portals the VMM later delegates the capability into the VM's
// capability space at the selector matching the exit reason (§5.2).
func (k *Kernel) CreatePortal(caller *PD, sel cap.Selector, name string, id uint64, mtd MTD, handle func(msg *UTCB) error) (*Portal, error) {
	if err := k.syscallEnter(caller); err != nil {
		return nil, err
	}
	pt := &Portal{Name: name, PD: caller, ID: id, UID: k.allocPtUID(), MTD: mtd, Handle: handle}
	if err := caller.Caps.Insert(sel, pt, cap.RightsAll); err != nil {
		return nil, err
	}
	return pt, nil
}

// CreateSemaphore creates a counting semaphore.
func (k *Kernel) CreateSemaphore(caller *PD, sel cap.Selector, name string, initial int64) (*Semaphore, error) {
	if err := k.syscallEnter(caller); err != nil {
		return nil, err
	}
	sm := &Semaphore{Name: name, ID: k.allocSemID(), Counter: initial, Owner: caller}
	if err := caller.Caps.Insert(sel, sm, cap.RightsAll); err != nil {
		return nil, err
	}
	return sm, nil
}

// DelegateCap transfers a capability from caller's space (§6). This is
// the hypercall form; during IPC, delegation can also ride in the
// message transfer descriptor.
func (k *Kernel) DelegateCap(caller *PD, src cap.Selector, dst *PD, dstSel cap.Selector, mask cap.Rights) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(dst, cap.ObjPD, cap.RightCtrl); err != nil {
		return err
	}
	return caller.Caps.Delegate(src, dst.Caps, dstSel, mask)
}

// RevokeCap recursively withdraws delegations of caller's capability.
func (k *Kernel) RevokeCap(caller *PD, sel cap.Selector, self bool) (int, error) {
	if err := k.syscallEnter(caller); err != nil {
		return 0, err
	}
	return caller.Caps.Revoke(sel, self)
}

// DelegateMem transfers memory pages between domains.
func (k *Kernel) DelegateMem(caller *PD, srcPage uint32, dst *PD, dstPage uint32, npages int, mask cap.Rights) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(dst, cap.ObjPD, cap.RightCtrl); err != nil {
		return err
	}
	return caller.Mem.Delegate(srcPage, dst.Mem, dstPage, npages, mask)
}

// RevokeMem withdraws memory delegations.
func (k *Kernel) RevokeMem(caller *PD, page uint32, npages int, self bool) (int, error) {
	if err := k.syscallEnter(caller); err != nil {
		return 0, err
	}
	// Each affected domain's memory version moves, so its vCPUs drop
	// their cached translations on their next access, on every CPU.
	return caller.Mem.Revoke(page, npages, self), nil
}

// DelegateIO transfers I/O port access.
func (k *Kernel) DelegateIO(caller *PD, dst *PD, lo, hi uint16) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(dst, cap.ObjPD, cap.RightCtrl); err != nil {
		return err
	}
	return caller.IO.Delegate(dst.IO, lo, hi)
}

// AssignGSI routes a hardware interrupt line to a semaphore: each
// occurrence performs an up operation, waking the driver EC blocked on
// it (§5: "the hypervisor uses semaphores to signal the occurrence of
// hardware interrupts to user applications").
func (k *Kernel) AssignGSI(caller *PD, line int, sm *Semaphore) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(sm, cap.ObjSemaphore, cap.RightCtrl); err != nil {
		return err
	}
	if line < 0 || line >= maxGSI {
		return ErrBadGSI
	}
	if !caller.IO.Allowed(uint16(line)) && caller != k.Root {
		return cap.ErrNoRights
	}
	// caphold: interrupt route into a driver domain; teardown=DestroyPD
	k.gsiSem[line] = sm
	delete(k.gsiVCPU, line)
	return nil
}

// AssignGSIToVM routes a hardware interrupt line directly to a vCPU for
// device passthrough: the kernel injects the given vector instead of
// waking a driver (§8.2 "Direct" configuration). The IOMMU's interrupt
// remapping must permit the device to use the vector.
func (k *Kernel) AssignGSIToVM(caller *PD, line int, ec *EC, vector uint8) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(ec, cap.ObjEC, cap.RightCtrl); err != nil {
		return err
	}
	if line < 0 || line >= maxGSI {
		return ErrBadGSI
	}
	if ec.Kind != ECVCPU {
		return fmt.Errorf("hypervisor: GSI target %s is not a vCPU", ec.Name)
	}
	// caphold: interrupt route into a guest vCPU; teardown=DestroyPD
	k.gsiVCPU[line] = &gsiRoute{ec: ec, vector: vector}
	delete(k.gsiSem, line)
	return nil
}

// Recall forces a virtual CPU to take a VM exit so the VMM can inject a
// pending interrupt in a timely manner (§7.5).
func (k *Kernel) Recall(caller *PD, ec *EC) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(ec, cap.ObjEC, cap.RightCtrl); err != nil {
		return err
	}
	if ec.Kind != ECVCPU {
		return fmt.Errorf("hypervisor: recall target %s is not a vCPU", ec.Name)
	}
	k.Record(trace.KindRecall, uint64(ec.ID), 0, 0, 0)
	ec.VCPU.RecallPending = true
	k.wakeVCPU(ec)
	return nil
}

// InjectIRQ is the VMM-side reply path for interrupt injection outside
// a VM exit: it queues the vector and recalls the vCPU if it is
// currently running with the window closed.
func (k *Kernel) InjectIRQ(caller *PD, ec *EC, vector uint8) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(ec, cap.ObjEC, cap.RightCtrl); err != nil {
		return err
	}
	v := ec.VCPU
	v.PendingVector = vector
	v.PendingValid = true
	k.wakeVCPU(ec)
	return nil
}

// wakeVCPU makes a blocked (halted) vCPU runnable again.
func (k *Kernel) wakeVCPU(ec *EC) {
	if ec.SC != nil && !ec.runnable && !ec.dead {
		ec.runnable = true
		k.enqueue(ec.SC)
	}
}

// DestroyPD tears a protection domain down: its capability space is
// destroyed (revoking everything it delegated), its memory and I/O
// ports revoked, and its ECs killed. The creator uses this to reclaim
// a crashed VMM or VM.
func (k *Kernel) DestroyPD(caller *PD, pd *PD) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(pd, cap.ObjPD, cap.RightCtrl); err != nil {
		return err
	}
	pd.dead = true
	errs := pd.Caps.Destroy()
	pd.Mem.Destroy()
	pd.IO.Destroy()
	for _, ec := range k.ecs {
		if ec.PD == pd {
			ec.dead = true
			ec.runnable = false
		}
	}
	// Tear down interrupt routes into the dead domain: semaphore routes
	// it created and vCPU routes targeting its ECs. The bounded line walk
	// keeps this deterministic (no map iteration).
	for line := 0; line < maxGSI; line++ {
		if sm := k.gsiSem[line]; sm != nil && sm.Owner == pd {
			delete(k.gsiSem, line)
		}
		if rt := k.gsiVCPU[line]; rt != nil && rt.ec.PD == pd {
			delete(k.gsiVCPU, line)
		}
	}
	return errs
}

// SemUp performs the semaphore up operation (hypercall form).
func (k *Kernel) SemUp(caller *PD, sm *Semaphore) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	if _, err := caller.Caps.LookupObj(sm, cap.ObjSemaphore, cap.RightCall); err != nil {
		return err
	}
	k.semUp(sm)
	return nil
}

// semUp is the kernel-internal up operation, also used for interrupt
// delivery.
func (k *Kernel) semUp(sm *Semaphore) {
	sm.Ups++
	woken := uint64(0)
	if len(sm.waiters) > 0 {
		// Copy down, as runqueue.pop does, so blocking appends into
		// the same backing array.
		ec := sm.waiters[0]
		n := copy(sm.waiters, sm.waiters[1:])
		sm.waiters[n] = nil
		sm.waiters = sm.waiters[:n]
		ec.waitingOn = nil
		if !ec.dead {
			ec.runnable = true
			woken = 1
			if ec.SC != nil {
				k.enqueue(ec.SC)
				cur := k.current[k.cpu]
				if cur == nil || cur.SC == nil || ec.SC.Priority > cur.SC.Priority {
					k.preempt = true
					k.Stats.Preemptions++
				}
			}
		}
	} else {
		sm.Counter++
	}
	k.Record(trace.KindSemUp, uint64(sm.ID), woken, 0, 0)
}

// SemDown blocks the calling EC until the semaphore is available. In
// this event-driven model, thread ECs call SemDownAsync to register and
// return; their Run body is re-invoked after the wakeup.
func (k *Kernel) SemDownAsync(caller *PD, ec *EC, sm *Semaphore) bool {
	k.charge(k.Plat.Cost.SyscallEntryExit)
	sm.Downs++
	if sm.Counter > 0 {
		sm.Counter--
		k.Record(trace.KindSemDown, uint64(sm.ID), 1, 0, 0)
		return true // immediately acquired; EC keeps running
	}
	ec.runnable = false
	ec.waitingOn = sm
	sm.waiters = append(sm.waiters, ec)
	k.Record(trace.KindSemDown, uint64(sm.ID), 0, 0, 0)
	return false
}
