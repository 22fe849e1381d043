// Package vmm implements NOVA's user-level virtual-machine monitor
// (§7): a deprivileged application that multiplexes one unmodified
// guest operating system onto the resources it received from the root
// partition manager. Each VM gets a dedicated VMM instance (§4.2), so a
// compromised monitor impairs only its own guest.
//
// The VMM owns the guest's memory, emulates sensitive instructions with
// the decoder-based instruction emulator (§7.1), models virtual devices
// as software state machines (§7.2), talks to host device drivers such
// as the disk server through per-client portals and shared completion
// memory (§7.3, Figure 4), integrates the virtual BIOS (§7.4), and
// injects interrupts using the recall hypercall (§7.5).
package vmm

import (
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/services"
	"nova/internal/span"
	"nova/internal/trace"
	"nova/internal/x86"
)

// Stats counts VMM-level activity, folded from the events the VMM
// records.
type Stats struct {
	Emulated     uint64 // instructions run through the emulator
	PortIO       uint64
	DiskRequests uint64
	BIOSCalls    uint64
}

// Config describes the virtual machine to build.
type Config struct {
	Name     string
	MemPages int    // guest-physical memory size in pages (>= 256)
	BasePage uint32 // first host page of the guest's memory (from the root PM)
	CPU      int
	Mode     hypervisor.PagingMode

	// VCPUs is the number of virtual CPUs (default 1). Each vCPU gets
	// its own set of VM-exit portals and a dedicated handler pinned to
	// the same physical processor (§7.5); vCPU i runs on physical CPU
	// (CPU+i) mod NumCPUs.
	VCPUs int

	// HostLargePages marks the delegation as large-page backed
	// (Figure 5's small/large host page comparison).
	HostLargePages bool

	// DiskServer connects the virtual AHCI controller; nil gives the
	// guest no disk.
	DiskServer *services.DiskServer
	// BootDisk gives the virtual BIOS synchronous access to boot
	// sectors (INT 13h); runtime I/O goes through the disk server.
	BootDisk *hw.Disk
}

// VMM is one virtual-machine monitor instance.
type VMM struct {
	K   *hypervisor.Kernel
	PD  *hypervisor.PD
	VM  *hypervisor.PD
	EC  *hypervisor.EC   // the boot vCPU (ECs[0])
	ECs []*hypervisor.EC // all vCPUs (§7.5)
	Cfg Config

	base uint64 // host-physical address of guest-physical 0
	size uint64

	vPIC    *hw.I8259
	vPIT    *hw.I8254
	vSerial *hw.Serial8250
	vPCI    *hw.PCIBus
	vAHCI   *VAHCI
	vKBD    *hw.I8042

	// biosKeys queues (scancode, ascii) pairs for INT 16h.
	biosKeys []uint16

	diskPortalSel cap.Selector
	diskClientID  uint64
	doorbell      *hypervisor.Semaphore

	MSRs map[uint32]uint64

	// emu is the instruction emulator, built on first use, and
	// emuState the guest state it runs on (see emulate).
	emu      *x86.Interp
	emuState x86.CPUState

	// inHandler marks that we are inside an exit handler, where
	// injection rides on the reply instead of a recall hypercall.
	inHandler  bool
	curMsg     *hypervisor.UTCB
	timerTicks uint64

	// spanInject queues, per virtual PIC line, the request spans whose
	// completion interrupt is pending on that line. armInjection closes
	// every span queued on the acked line — closing all of them (not
	// just the head) is what makes coalesced interrupts close each
	// request exactly once: one injected vector may complete several
	// requests.
	spanInject [16][]span.ID

	console []byte

	Stats Stats

	// Sabotage hooks for the attack-scenario examples: when set, the
	// named handler misbehaves (returns an error, as a crashed VMM
	// would).
	SabotageIO bool
}

// record is the VMM's one probe: it counts the event in Stats and hands
// it to the kernel's record path.
func (m *VMM) record(kind trace.Kind, a0, a1, a2, a3 uint64) {
	s := &m.Stats
	switch kind {
	case trace.KindEmulate:
		s.Emulated++
	case trace.KindPIO:
		s.PortIO++
	case trace.KindDiskRequest:
		s.DiskRequests++
	case trace.KindBIOSCall:
		s.BIOSCalls++
	default:
		// The other kinds have no VMM counter; the stat registry
		// counts MMIO accesses, HLTs and armed injections.
	}
	m.K.Record(kind, a0, a1, a2, a3)
}

// guestExitMTDs selects per-event minimal state transfer (§5.2/§7: the
// CPUID portal carries only GPRs, instruction pointer and length).
func guestExitMTDs() map[x86.ExitReason]hypervisor.MTD {
	return map[x86.ExitReason]hypervisor.MTD{
		x86.ExitCPUID:             hypervisor.MTDGPR | hypervisor.MTDEIP,
		x86.ExitIO:                hypervisor.MTDGPR | hypervisor.MTDEIP | hypervisor.MTDQual | hypervisor.MTDInj | hypervisor.MTDEFLAGS,
		x86.ExitHLT:               hypervisor.MTDEIP | hypervisor.MTDEFLAGS | hypervisor.MTDSTA | hypervisor.MTDInj,
		x86.ExitEPTViolation:      hypervisor.MTDAll,
		x86.ExitMSR:               hypervisor.MTDGPR | hypervisor.MTDEIP,
		x86.ExitInterruptWindow:   hypervisor.MTDInj | hypervisor.MTDEFLAGS | hypervisor.MTDEIP,
		x86.ExitRecall:            hypervisor.MTDInj | hypervisor.MTDEFLAGS | hypervisor.MTDEIP | hypervisor.MTDSTA,
		x86.ExitException:         hypervisor.MTDAll,
		x86.ExitTripleFault:       hypervisor.MTDAll,
		x86.ExitCRAccess:          hypervisor.MTDGPR | hypervisor.MTDEIP | hypervisor.MTDCR | hypervisor.MTDQual,
		x86.ExitINVLPG:            hypervisor.MTDEIP | hypervisor.MTDQual,
		x86.ExitRDTSC:             hypervisor.MTDGPR | hypervisor.MTDEIP,
		x86.ExitExternalInterrupt: 0,
		x86.ExitNone:              0,
	}
}

// New builds the VMM, its VM domain, the vCPU, the virtual devices and
// the VM-exit portals.
func New(k *hypervisor.Kernel, cfg Config) (*VMM, error) {
	if cfg.MemPages < 256 {
		return nil, fmt.Errorf("vmm: guest needs at least 1 MiB (256 pages), got %d", cfg.MemPages)
	}
	pd, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "vmm-"+cfg.Name, false)
	if err != nil {
		return nil, err
	}
	vm, err := k.CreatePD(pd, pd.Caps.AllocSel(), cfg.Name, true)
	if err != nil {
		return nil, err
	}
	vm.HostLargePages = cfg.HostLargePages
	m := &VMM{
		K: k, PD: pd, VM: vm, Cfg: cfg,
		base: uint64(cfg.BasePage) << 12,
		size: uint64(cfg.MemPages) * hw.PageSize,
		MSRs: make(map[uint32]uint64),
	}

	// Memory: root -> VMM -> VM at guest-physical 0. The VMM keeps the
	// mapping in its own space too: it manages guest-physical memory by
	// mapping a subset of its address space into the VM (§7).
	if err := k.DelegateMem(k.Root, cfg.BasePage, pd, cfg.BasePage, cfg.MemPages, cap.RightsAll); err != nil {
		return nil, err
	}
	if err := k.DelegateMem(pd, cfg.BasePage, vm, 0, cfg.MemPages, cap.RightRead|cap.RightWrite|cap.RightExec); err != nil {
		return nil, err
	}

	// Virtual devices.
	m.vPIC = hw.NewI8259()
	m.vPIC.OutputChanged = m.kick
	m.vSerial = hw.NewSerial8250(0x3f8)
	m.vPIT = hw.NewI8254(k.Plat.Queue, func() hw.Cycles { return k.Plat.CPUs[cfg.CPU].Clock.Now() },
		k.Plat.Cost.FreqMHz, func() {
			m.timerTicks++
			m.vPIC.RaiseIRQ(0)
		})
	m.vPCI = hw.NewPCIBus()
	m.vKBD = hw.NewI8042(func() { m.vPIC.RaiseIRQ(1) })
	if cfg.DiskServer != nil {
		m.vAHCI = NewVAHCI(m)
		m.vPCI.Add(&hw.PCIFunction{
			Dev: hw.BDF(0, 31, 2), VendorID: 0x8086, DeviceID: 0x2922,
			Class: 0x010601, BAR: [6]uint32{5: uint32(hw.AHCIMMIOBase)}, IRQLine: VAHCIIRQ,
		})
		// The disk server creates the channel: doorbell semaphore plus
		// request portal, both delegated to the VMM (Figure 4, step 1).
		pt, bell, id, err := cfg.DiskServer.AddClient(pd, cfg.Name)
		if err != nil {
			return nil, err
		}
		m.doorbell = bell
		m.diskClientID = id
		m.diskPortalSel = pd.Caps.AllocSel()
		if err := services.DelegatePortal(k, cfg.DiskServer.PD, pt, pd, m.diskPortalSel); err != nil {
			return nil, err
		}
		// Completion EC woken by the doorbell (Figure 4, step 7).
		cec, err := k.CreateEC(k.Root, k.Root.Caps.AllocSel(), pd, cfg.CPU, cfg.Name+"-disk-complete", nil)
		if err != nil {
			return nil, err
		}
		cec.Run = m.handleDiskCompletions
		if _, err := k.CreateSC(k.Root, k.Root.Caps.AllocSel(), cec, 30, 1_000_000); err != nil {
			return nil, err
		}
		k.BindECToSemaphore(cec, m.doorbell)
	}

	// The vCPUs and their per-vCPU exit portal sets (§7.5: "for each
	// virtual CPU, there exists a dedicated handler ... which resides
	// on the same physical processor as the virtual CPU"; the handlers
	// here are closures bound to their vCPU index, so most exits by
	// different vCPUs are handled independently).
	nvcpus := cfg.VCPUs
	if nvcpus <= 0 {
		nvcpus = 1
	}
	mtds := guestExitMTDs()
	for i := 0; i < nvcpus; i++ {
		i := i
		pcpu := (cfg.CPU + i) % len(k.Plat.CPUs)
		ec, err := k.CreateVCPU(pd, pd.Caps.AllocSel(), vm, pcpu,
			fmt.Sprintf("%s-vcpu%d", cfg.Name, i), cfg.Mode, i)
		if err != nil {
			return nil, err
		}
		m.ECs = append(m.ECs, ec)
		for r := x86.ExitReason(0); int(r) < x86.NumExitReasons; r++ {
			r := r
			sel := pd.Caps.AllocSel()
			if _, err := k.CreatePortal(pd, sel, fmt.Sprintf("%s-v%d-%s", cfg.Name, i, r),
				uint64(r), mtds[r],
				func(msg *hypervisor.UTCB) error { return m.handleExit(r, i, msg) }); err != nil {
				return nil, err
			}
			if err := k.DelegateCap(pd, sel, vm, hypervisor.PortalSelectorFor(r, i), cap.RightCall); err != nil {
				return nil, err
			}
		}
	}
	m.EC = m.ECs[0]
	return m, nil
}

// Start gives every vCPU a scheduling context, making the VM runnable.
func (m *VMM) Start(priority int, quantum hw.Cycles) error {
	for _, ec := range m.ECs {
		if _, err := m.K.CreateSC(m.PD, m.PD.Caps.AllocSel(), ec, priority, quantum); err != nil {
			return err
		}
	}
	return nil
}

// Console returns everything the guest printed through the BIOS
// teletype service and the virtual serial port.
func (m *VMM) Console() string { return string(m.console) + m.vSerial.Output() }

// inGuest reports whether [gpa, gpa+n) lies inside guest-physical
// memory. Guests write 64-bit addresses (command lists, PRDs), so the
// test must not wrap near 2^64.
func (m *VMM) inGuest(gpa, n uint64) bool {
	return gpa <= m.size && n <= m.size-gpa
}

// GuestRead fills b from guest-physical memory at gpa (the VMM's own
// mapping of it, RAM only) and returns it, or returns nil when the
// range leaves guest memory.
func (m *VMM) GuestRead(gpa uint64, b []byte) []byte {
	if !m.inGuest(gpa, uint64(len(b))) {
		return nil
	}
	m.K.Plat.Mem.ReadInto(hw.PhysAddr(m.base+gpa), b)
	return b
}

// GuestWrite fills guest-physical memory.
//
// nocharge: cost is carried by the caller — setup-time image/BIOS
// loading outside measured windows, or the instruction emulator, which
// charges EmulateInstruction per emulated instruction.
func (m *VMM) GuestWrite(gpa uint64, b []byte) error {
	if !m.inGuest(gpa, uint64(len(b))) {
		return fmt.Errorf("vmm: guest write of %d bytes at %#x beyond guest memory", len(b), gpa)
	}
	m.K.Plat.Mem.WriteBytes(hw.PhysAddr(m.base+gpa), b)
	return nil
}

func (m *VMM) guestRead32(gpa uint64) uint32 {
	if !m.inGuest(gpa, 4) {
		return 0
	}
	return m.K.Plat.Mem.Read32(hw.PhysAddr(m.base + gpa))
}

func (m *VMM) guestWrite32(gpa uint64, v uint32) {
	if m.inGuest(gpa, 4) {
		m.K.Plat.Mem.Write32(hw.PhysAddr(m.base+gpa), v)
	}
}

// kick reacts to virtual interrupt-controller output changes: inside an
// exit handler the injection rides on the reply; otherwise the VMM
// recalls the vCPU so it can inject in a timely manner (§7.5).
func (m *VMM) kick() {
	if !m.vPIC.HasPending() {
		return
	}
	if m.inHandler {
		m.armInjection(m.curMsg)
		return
	}
	if m.EC != nil && !m.EC.VCPU.PendingValid {
		m.K.Recall(m.PD, m.EC) //nolint:errcheck
	}
}

// armInjection acknowledges the virtual PIC and requests injection in
// the exit reply. The kernel delivers when the guest becomes
// interruptible, producing an interrupt-window exit if needed.
func (m *VMM) armInjection(msg *hypervisor.UTCB) {
	if msg == nil || msg.InjectValid {
		return
	}
	if vec, ok := m.vPIC.Acknowledge(); ok {
		msg.InjectValid = true
		msg.InjectVector = vec
		msg.WindowRequest = true
		m.record(trace.KindArmInject, uint64(vec), 0, 0, 0)
		m.closeInjectedSpans(vec)
	}
}

// closeInjectedSpans closes every request span waiting on the IRQ line
// behind the just-acknowledged vector: arming the injection is the end
// of the request's causal chain (the guest observes the completion when
// it runs next). Whether the arm came from the in-handler path or a
// recall exit, Acknowledge fires exactly once per injection, so each
// span closes exactly once.
func (m *VMM) closeInjectedSpans(vec uint8) {
	line, ok := m.vPIC.LineFor(vec)
	if !ok || line < 0 || line >= len(m.spanInject) || len(m.spanInject[line]) == 0 {
		return
	}
	cpu, now := m.K.CurCPU(), m.K.Now()
	for _, sp := range m.spanInject[line] {
		m.K.Spans.Annotate(cpu, now, sp, span.AnnotVector, uint64(vec))
		m.K.Spans.Close(cpu, now, sp, span.StatusOK)
	}
	m.spanInject[line] = m.spanInject[line][:0]
}

// handleExit is the per-vCPU portal handler: it dispatches on the event
// type and arms pending injections before replying. Device interrupts
// are delivered to the boot vCPU (the classic PIC has a single output);
// other vCPUs receive interrupts through virtual IPIs.
func (m *VMM) handleExit(r x86.ExitReason, vcpu int, msg *hypervisor.UTCB) error {
	m.inHandler = true
	m.curMsg = msg
	defer func() { m.inHandler = false; m.curMsg = nil }()

	var err error
	switch r {
	case x86.ExitCPUID:
		a, b, c, d := x86.CPUIDValues(msg.State.GPR[x86.EAX], msg.State.GPR[x86.ECX])
		msg.State.GPR[x86.EAX], msg.State.GPR[x86.EBX] = a, b
		msg.State.GPR[x86.ECX], msg.State.GPR[x86.EDX] = c, d
		msg.State.EIP += uint32(msg.Exit.InstLen)
	case x86.ExitIO:
		err = m.handleIO(msg)
	case x86.ExitHLT:
		m.record(trace.KindHalt, uint64(vcpu), 0, 0, 0)
		if m.vPIC.HasPending() && msg.State.IF() {
			m.armInjection(msg)
			msg.State.EIP += uint32(msg.Exit.InstLen)
		} else {
			msg.State.Halted = true
			msg.State.EIP += uint32(msg.Exit.InstLen)
		}
	case x86.ExitEPTViolation:
		err = m.emulate(msg)
	case x86.ExitMSR:
		if msg.Exit.MSRWrite {
			m.MSRs[msg.Exit.MSR] = msg.Exit.MSRVal
		} else {
			v := m.MSRs[msg.Exit.MSR]
			msg.State.GPR[x86.EAX] = uint32(v)
			msg.State.GPR[x86.EDX] = uint32(v >> 32)
		}
		msg.State.EIP += uint32(msg.Exit.InstLen)
	case x86.ExitInterruptWindow, x86.ExitRecall:
		m.armInjection(msg)
	case x86.ExitTripleFault:
		return fmt.Errorf("vmm: guest %s triple fault at eip=%#x", m.Cfg.Name, msg.State.EIP)
	default:
		return fmt.Errorf("vmm: unhandled exit %v", r)
	}
	if err != nil {
		return err
	}
	// Epilogue: if the virtual PIC has something deliverable and no
	// injection is outstanding, arm it now (boot vCPU only: the PIC's
	// INTR line is wired to it).
	if vcpu == 0 && m.vPIC.HasPending() {
		m.armInjection(msg)
	}
	return nil
}
