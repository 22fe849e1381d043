package vmm

import (
	"bytes"
	"testing"

	"nova/internal/hypervisor"
	"nova/internal/x86"
)

// pagedEmuState loads code at guest-physical 0x8000 and returns a flat
// 32-bit state with paging on that is about to run it. The page tables
// map virtual pages 0x8 and 0x10 to themselves and virtual page 0x11 to
// frame 0x30, so a dword at virtual 0x10ffe straddles two pages whose
// frames are not adjacent.
func pagedEmuState(t *testing.T, m *VMM, code string) x86.CPUState {
	t.Helper()
	const pte = x86.PTEPresent | x86.PTEWrite
	m.guestWrite32(0x1000, 0x2000|uint32(pte))
	for _, p := range [][2]uint32{{0x8, 0x8}, {0x10, 0x10}, {0x11, 0x30}} {
		m.guestWrite32(0x2000+uint64(p[0])*4, p[1]<<12|uint32(pte))
	}
	if err := m.GuestWrite(0x8000, x86.MustAssemble("bits 32\norg 0x8000\n"+code)); err != nil {
		t.Fatal(err)
	}
	var st x86.CPUState
	st.Reset()
	st.CR0 = x86.CR0PE | x86.CR0PG
	st.CR3 = 0x1000
	for i := range st.Seg {
		st.Seg[i] = x86.Segment{Limit: 0xffffffff, Def32: true}
	}
	st.EIP = 0x8000
	return st
}

// TestEmulatorPageCrossingAccess: the emulator translates each page of
// an access that straddles two pages on its own, so both halves of a
// push land in the frames the guest mapped, and a load gathers its
// bytes from both.
func TestEmulatorPageCrossingAccess(t *testing.T) {
	_, m, _ := testStack(t, hypervisor.ModeEPT, false)

	msg := &hypervisor.UTCB{State: pagedEmuState(t, m, "push eax")}
	msg.State.GPR[x86.ESP] = 0x11002
	msg.State.GPR[x86.EAX] = 0x44332211
	if err := m.emulate(msg); err != nil {
		t.Fatal(err)
	}
	if esp := msg.State.GPR[x86.ESP]; esp != 0x10ffe {
		t.Errorf("esp = %#x, want 0x10ffe", esp)
	}
	for _, c := range []struct {
		gpa  uint64
		want []byte
	}{
		{0x10ffe, []byte{0x11, 0x22}}, // low half, page 0x10
		{0x30000, []byte{0x33, 0x44}}, // high half, page 0x11 = frame 0x30
		{0x11000, []byte{0, 0}},       // frame 0x11 is not mapped there
	} {
		if got := m.GuestRead(c.gpa, make([]byte, 2)); !bytes.Equal(got, c.want) {
			t.Errorf("push: guest %#x = % x, want % x", c.gpa, got, c.want)
		}
	}

	msg = &hypervisor.UTCB{State: pagedEmuState(t, m, "mov ebx, [0x10ffe]")}
	if err := m.GuestWrite(0x11000, []byte{0xee, 0xee}); err != nil {
		t.Fatal(err)
	}
	if err := m.emulate(msg); err != nil {
		t.Fatal(err)
	}
	if ebx := msg.State.GPR[x86.EBX]; ebx != 0x44332211 {
		t.Errorf("load: ebx = %#x, want 0x44332211", ebx)
	}
}

// TestEmulationsAreIndependent: the VMM reuses one emulator, yet each
// emulation behaves like one on a fresh interpreter. An MSR written by
// one emulated instruction is not seen by the next, and a failed
// emulation leaves the exit message's state as it was.
func TestEmulationsAreIndependent(t *testing.T) {
	_, m, _ := testStack(t, hypervisor.ModeEPT, false)

	msg := &hypervisor.UTCB{State: pagedEmuState(t, m, "wrmsr")}
	msg.State.GPR[x86.ECX] = 0x10
	msg.State.GPR[x86.EAX], msg.State.GPR[x86.EDX] = 0x1234, 0x5678
	if err := m.emulate(msg); err != nil {
		t.Fatal(err)
	}

	// An undefined opcode with an empty IDT escalates to a triple fault.
	msg = &hypervisor.UTCB{State: pagedEmuState(t, m, "ud2")}
	msg.State.IDTR.Limit = 0
	before := msg.State
	if err := m.emulate(msg); err == nil {
		t.Fatal("emulating ud2 with an empty IDT succeeded")
	}
	if msg.State != before {
		t.Error("a failed emulation changed the exit message's state")
	}

	msg = &hypervisor.UTCB{State: pagedEmuState(t, m, "rdmsr")}
	msg.State.GPR[x86.ECX] = 0x10
	msg.State.GPR[x86.EAX], msg.State.GPR[x86.EDX] = 0xdead, 0xbeef
	if err := m.emulate(msg); err != nil {
		t.Fatal(err)
	}
	if a, d := msg.State.GPR[x86.EAX], msg.State.GPR[x86.EDX]; a != 0 || d != 0 {
		t.Errorf("rdmsr after an earlier emulation's wrmsr = %#x:%#x, want 0:0", d, a)
	}
	if msg.State.EIP != 0x8002 {
		t.Errorf("eip = %#x after rdmsr, want 0x8002", msg.State.EIP)
	}
}
