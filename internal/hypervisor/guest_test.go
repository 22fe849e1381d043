package hypervisor

import (
	"strings"
	"testing"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/x86"
)

// testVM wires a minimal VMM around one guest for kernel-level tests.
type testVM struct {
	k    *Kernel
	vmm  *PD
	vm   *PD
	ec   *EC
	base uint64 // host-physical address of guest-physical 0
}

// guestMTD is the state a test portal transfers.
const guestMTD = MTDGPR | MTDEIP | MTDEFLAGS | MTDQual | MTDSTA | MTDInj

var selCounter cap.Selector = 100

// nextSel returns a fresh selector. It wraps long before the 2^20
// selector limit, which a fuzz target building machines for every
// input would otherwise reach; selectors only need to be unique within
// one kernel, and no test's kernel takes anywhere near 2^19 of them.
func nextSel() cap.Selector {
	if selCounter++; selCounter >= 1<<19 {
		selCounter = 101
	}
	return selCounter
}

// makeVM builds a VM with memPages pages of guest-physical memory
// (backed at host 2 MiB), loads code at guest-physical org, and installs
// portals from handlers. Exit reasons without handlers get a default
// that fails the test.
func makeVM(t testing.TB, k *Kernel, mode PagingMode, memPages int, code []byte, org uint32,
	handlers map[x86.ExitReason]func(*testVM, *UTCB) error) *testVM {
	t.Helper()
	vmm, err := k.CreatePD(k.Root, nextSel(), "vmm", false)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := k.CreatePD(vmm, nextSel(), "guest", true)
	if err != nil {
		t.Fatal(err)
	}
	const basePage = 0x200 // host 2 MiB
	tv := &testVM{k: k, vmm: vmm, vm: vm, base: basePage << 12}
	if err := k.DelegateMem(k.Root, basePage, vmm, basePage, memPages, cap.RightsAll); err != nil {
		t.Fatal(err)
	}
	if err := k.DelegateMem(vmm, basePage, vm, 0, memPages, cap.RightRead|cap.RightWrite|cap.RightExec); err != nil {
		t.Fatal(err)
	}
	k.Plat.Mem.WriteBytes(hw.PhysAddr(tv.base+uint64(org)), code)

	ec, err := k.CreateVCPU(vmm, nextSel(), vm, 0, "vcpu0", mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	tv.ec = ec
	ec.VCPU.State.EIP = org

	for r := x86.ExitReason(0); int(r) < x86.NumExitReasons; r++ {
		r := r
		h := handlers[r]
		if h == nil {
			switch r {
			case x86.ExitHLT:
				h = func(tv *testVM, m *UTCB) error { m.State.Halted = true; return nil }
			default:
				h = func(tv *testVM, m *UTCB) error {
					t.Fatalf("unexpected VM exit %v (eip=%#x)", m.Exit.Reason, m.State.EIP)
					return nil
				}
			}
		}
		sel := nextSel()
		if _, err := k.CreatePortal(vmm, sel, "exit-"+r.String(), uint64(r), guestMTD,
			func(m *UTCB) error { return h(tv, m) }); err != nil {
			t.Fatal(err)
		}
		if err := vmm.Caps.Delegate(sel, vm.Caps, PortalSelector(r), cap.RightCall); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.CreateSC(vmm, nextSel(), ec, 10, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return tv
}

// writeGuest writes into guest-physical memory.
func (tv *testVM) writeGuest(gpa uint64, b []byte) {
	tv.k.Plat.Mem.WriteBytes(hw.PhysAddr(tv.base+gpa), b)
}

func (tv *testVM) readGuest32(gpa uint64) uint32 {
	return tv.k.Plat.Mem.Read32(hw.PhysAddr(tv.base + gpa))
}

func TestGuestEPTRunsAndExits(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	code := x86.MustAssemble(`bits 16
org 0x7c00
	mov ax, 5
	cpuid
	add ax, 1
	hlt`)
	cpuids := 0
	tv := makeVM(t, k, ModeEPT, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitCPUID: func(tv *testVM, m *UTCB) error {
			cpuids++
			m.State.GPR[x86.EBX] = 0x600d
			m.State.EIP += uint32(m.Exit.InstLen)
			return nil
		},
	})
	k.Run(k.Now() + 50_000_000)
	v := tv.ec.VCPU
	if cpuids != 1 {
		t.Errorf("cpuid exits handled = %d", cpuids)
	}
	if !v.State.Halted {
		t.Fatalf("guest did not halt: %v", v.State.String())
	}
	if v.State.Reg(x86.EAX, 2) != 6 {
		t.Errorf("ax = %d, want 6", v.State.Reg(x86.EAX, 2))
	}
	if v.State.GPR[x86.EBX] != 0x600d {
		t.Errorf("ebx not written back from VMM reply: %#x", v.State.GPR[x86.EBX])
	}
	if v.Exits[x86.ExitCPUID] != 1 || v.Exits[x86.ExitHLT] != 1 {
		t.Errorf("exit counts: cpuid=%d hlt=%d", v.Exits[x86.ExitCPUID], v.Exits[x86.ExitHLT])
	}
}

func TestGuestPortIOExit(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	code := x86.MustAssemble(`bits 16
org 0x7c00
	mov al, 0x42
	out 0x80, al
	in al, 0x60
	hlt`)
	var outPort uint16
	var outVal uint32
	tv := makeVM(t, k, ModeEPT, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitIO: func(tv *testVM, m *UTCB) error {
			if m.Exit.In {
				m.State.SetReg(x86.EAX, m.Exit.Size, 0x99)
			} else {
				outPort, outVal = m.Exit.Port, m.Exit.OutVal
			}
			m.State.EIP += uint32(m.Exit.InstLen)
			return nil
		},
	})
	k.Run(k.Now() + 50_000_000)
	if outPort != 0x80 || outVal != 0x42 {
		t.Errorf("out: port=%#x val=%#x", outPort, outVal)
	}
	if tv.ec.VCPU.State.Reg8(x86.EAX) != 0x99 {
		t.Errorf("in: al=%#x", tv.ec.VCPU.State.Reg8(x86.EAX))
	}
	if tv.ec.VCPU.Exits[x86.ExitIO] != 2 {
		t.Errorf("io exits = %d", tv.ec.VCPU.Exits[x86.ExitIO])
	}
}

func TestGuestEPTViolationForMMIO(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	// 16 pages mapped (64K); access at linear 0x20000 exits.
	code := x86.MustAssemble(`bits 16
org 0x7c00
	mov ax, 0x2000
	mov ds, ax
	mov byte [0x0], 0x55
	hlt`)
	var gpa uint64
	var isWrite bool
	tv := makeVM(t, k, ModeEPT, 16, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitEPTViolation: func(tv *testVM, m *UTCB) error {
			gpa, isWrite = m.Exit.GPA, m.Exit.Write
			// Emulate the instruction as a no-op MMIO store: skip it.
			// The VMM would decode it; here we know its length.
			m.State.EIP += 4
			return nil
		},
	})
	k.Run(k.Now() + 50_000_000)
	if gpa != 0x20000 || !isWrite {
		t.Errorf("ept violation gpa=%#x write=%v", gpa, isWrite)
	}
	if !tv.ec.VCPU.State.Halted {
		t.Error("guest did not complete")
	}
}

func TestGuestKilledWithoutPortal(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	vmm, _ := k.CreatePD(k.Root, nextSel(), "vmm", false)
	vm, _ := k.CreatePD(vmm, nextSel(), "guest", true)
	const basePage = 0x200
	k.DelegateMem(k.Root, basePage, vmm, basePage, 16, cap.RightsAll)
	k.DelegateMem(vmm, basePage, vm, 0, 16, cap.RightsAll)
	code := x86.MustAssemble("bits 16\norg 0x7c00\ncpuid\nhlt")
	k.Plat.Mem.WriteBytes(hw.PhysAddr(basePage<<12+0x7c00), code)
	ec, _ := k.CreateVCPU(vmm, nextSel(), vm, 0, "vcpu", ModeEPT, 0)
	ec.VCPU.State.EIP = 0x7c00
	k.CreateSC(vmm, nextSel(), ec, 10, 1_000_000)
	k.Run(k.Now() + 10_000_000)
	if !ec.dead {
		t.Fatal("VM without portals survived a VM exit")
	}
	if len(k.Killed) != 1 || !strings.Contains(k.Killed[0], "no portal") {
		t.Errorf("killed = %v", k.Killed)
	}
}

func TestGuestInterruptInjection(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	// IVT entry 0x21 -> 0:0x5000; ISR increments a counter at 0x6000.
	code := x86.MustAssemble(`bits 16
org 0x7c00
	xor ax, ax
	mov ds, ax
	mov es, ax
	mov word [0x84], 0x5000 ; IVT vector 0x21 offset
	mov word [0x86], 0      ; segment
	sti
again:
	hlt
	jmp again`)
	isr := x86.MustAssemble(`bits 16
org 0x5000
	push ax
	mov ax, [0x6000]
	inc ax
	mov [0x6000], ax
	pop ax
	iret`)
	injected := 0
	tv := makeVM(t, k, ModeEPT, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitHLT: func(tv *testVM, m *UTCB) error {
			if injected < 3 {
				injected++
				m.InjectValid = true
				m.InjectVector = 0x21
				m.State.EIP += uint32(m.Exit.InstLen)
			} else {
				m.State.Halted = true
			}
			return nil
		},
	})
	tv.writeGuest(0x5000, isr)
	k.Run(k.Now() + 100_000_000)
	v := tv.ec.VCPU
	if got := tv.readGuest32(0x6000) & 0xffff; got != 3 {
		t.Errorf("ISR ran %d times, want 3", got)
	}
	if v.InjectedIRQs != 3 {
		t.Errorf("injections = %d", v.InjectedIRQs)
	}
	if !v.State.Halted {
		t.Error("guest did not finish")
	}
}

func TestInterruptWindowExit(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	// Guest runs with IF=0, does some work, then STI: the injection
	// must wait for the window and produce a window exit.
	code := x86.MustAssemble(`bits 16
org 0x7c00
	xor ax, ax
	mov ds, ax
	mov word [0x84], 0x5000
	mov word [0x86], 0
	cli
	out 0x80, al   ; VMM queues an injection here
	mov cx, 10
spin:
	dec cx
	jnz spin
	sti
	nop
	hlt`)
	isr := x86.MustAssemble("bits 16\norg 0x5000\nmov bx, 0x1234\niret")
	windowExits := 0
	tv := makeVM(t, k, ModeEPT, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitIO: func(tv *testVM, m *UTCB) error {
			m.InjectValid = true
			m.InjectVector = 0x21
			m.State.EIP += uint32(m.Exit.InstLen)
			return nil
		},
		x86.ExitInterruptWindow: func(tv *testVM, m *UTCB) error {
			windowExits++
			return nil
		},
	})
	tv.writeGuest(0x5000, isr)
	k.Run(k.Now() + 100_000_000)
	v := tv.ec.VCPU
	if windowExits != 1 {
		t.Errorf("interrupt-window exits = %d, want 1", windowExits)
	}
	if v.State.Reg(x86.EBX, 2) != 0x1234 {
		t.Errorf("ISR did not run: bx=%#x", v.State.Reg(x86.EBX, 2))
	}
	if v.Exits[x86.ExitInterruptWindow] != 1 {
		t.Errorf("window exit count = %d", v.Exits[x86.ExitInterruptWindow])
	}
}

func TestRecallForcesExit(t *testing.T) {
	k := newTestKernel(t, Config{UseVPID: true})
	code := x86.MustAssemble(`bits 16
org 0x7c00
	sti
spin:
	jmp spin`)
	recalls := 0
	tv := makeVM(t, k, ModeEPT, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitRecall: func(tv *testVM, m *UTCB) error {
			recalls++
			m.State.Halted = true // stop the test
			return nil
		},
	})
	// Let the guest spin a while, then recall it.
	k.Run(k.Now() + 1_000_000)
	if err := k.Recall(tv.vmm, tv.ec); err != nil {
		t.Fatal(err)
	}
	k.Run(k.Now() + 10_000_000)
	if recalls != 1 {
		t.Errorf("recall exits = %d, want 1", recalls)
	}
	if k.Stats.Recalls != 1 {
		t.Errorf("recall stat = %d", k.Stats.Recalls)
	}
}

func TestReadOnlyMappingReadsDirectWritesTrap(t *testing.T) {
	// §7.2: "device registers without read side effects can be mapped
	// read-only" — reads proceed at full speed without exits; writes
	// become EPT violations for the VMM to emulate.
	k := newTestKernel(t, Config{UseVPID: true})
	writes := 0
	code := x86.MustAssemble(`bits 16
org 0x7c00
	mov ax, 0x3000
	mov ds, ax
	mov eax, [0x0]      ; read the RO page: no exit
	mov [0x6000], eax   ; via DS... careful: 0x6000 within ds segment
	mov byte [0x4], 0x55 ; write the RO page: traps
	hlt`)
	tv := makeVM(t, k, ModeEPT, 64, code, 0x7c00, map[x86.ExitReason]func(*testVM, *UTCB) error{
		x86.ExitEPTViolation: func(tv *testVM, m *UTCB) error {
			writes++
			if !m.Exit.Write || m.Exit.GPA != 0x30004 {
				t.Errorf("unexpected violation: gpa=%#x write=%v", m.Exit.GPA, m.Exit.Write)
			}
			m.State.EIP += 5 // emulate/skip the store
			return nil
		},
	})
	// Replace the RW mapping of guest page 0x30 with a read-only one
	// (a register window of a virtual device).
	tv.vm.Mem.Revoke(0x30, 1, true)
	if err := tv.vmm.Mem.Delegate(0x200+0x30, tv.vm.Mem, 0x30, 1, cap.RightRead); err != nil {
		t.Fatal(err)
	}
	// Put a recognizable value into the backing frame.
	k.Plat.Mem.Write32(hw.PhysAddr(tv.base+0x30000), 0x5afe5afe)

	k.Run(k.Now() + 50_000_000)
	v := tv.ec.VCPU
	if !v.State.Halted {
		t.Fatalf("guest did not halt; killed=%v", k.Killed)
	}
	// The read saw the device value without any read exits.
	if got := tv.readGuest32(0x36000); got != 0x5afe5afe {
		t.Errorf("read-through value = %#x", got)
	}
	if writes != 1 {
		t.Errorf("write traps = %d, want 1", writes)
	}
	if v.Exits[x86.ExitEPTViolation] != 1 {
		t.Errorf("ept violations = %d, want exactly the write", v.Exits[x86.ExitEPTViolation])
	}
}
