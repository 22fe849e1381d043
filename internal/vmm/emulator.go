package vmm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nova/internal/hypervisor"
	"nova/internal/trace"
	"nova/internal/x86"
)

var errSabotaged = errors.New("vmm: handler sabotaged")

// emuEnv is the instruction emulator's world (§7.1): guest-virtual
// addresses are translated through the guest's own page tables, RAM
// accesses go to the guest memory the VMM owns, and accesses that fall
// into a virtual device window update the device model instead.
type emuEnv struct {
	m *VMM
}

// vmmGuestPhys adapts the VMM's guest-memory mapping as x86.PhysMem for
// the emulator's page-table walks.
type vmmGuestPhys struct{ m *VMM }

func (g vmmGuestPhys) ReadPhys32(pa uint64) (uint32, bool) {
	if !g.m.inGuest(pa, 4) {
		return 0, false
	}
	return g.m.guestRead32(pa), true
}

func (g vmmGuestPhys) WritePhys32(pa uint64, v uint32) bool {
	if !g.m.inGuest(pa, 4) {
		return false
	}
	g.m.guestWrite32(pa, v)
	return true
}

// translate resolves a guest-linear address to guest-physical using the
// guest's paging state from the exit message.
func (e *emuEnv) translate(st *x86.CPUState, va uint32, write bool) (uint64, error) {
	if !st.PagingEnabled() {
		return uint64(va), nil
	}
	w, exc := x86.WalkGuest(vmmGuestPhys{e.m}, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
	if exc != nil {
		return 0, exc
	}
	return w.PA, nil
}

func (e *emuEnv) MemRead(st *x86.CPUState, va uint32, size int, kind x86.AccessKind) (uint32, error) {
	gpa, err := e.translate(st, va, false)
	if err != nil {
		return 0, err
	}
	if v, ok := e.m.mmioRead(gpa, size); ok {
		return v, nil
	}
	if !e.m.inGuest(gpa, uint64(size)) {
		// Unclaimed bus address: reads float high (PCI master abort).
		return 0xffffffff >> (32 - uint(size)*8), nil
	}
	var b [4]byte
	r := e.m.GuestRead(gpa, b[:size])
	var v uint32
	for i := len(r) - 1; i >= 0; i-- {
		v = v<<8 | uint32(r[i])
	}
	return v, nil
}

func (e *emuEnv) MemWrite(st *x86.CPUState, va uint32, size int, val uint32) error {
	gpa, err := e.translate(st, va, true)
	if err != nil {
		return err
	}
	if e.m.mmioWrite(gpa, size, val) {
		return nil
	}
	if !e.m.inGuest(gpa, uint64(size)) {
		return nil // unclaimed bus address: write dropped
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], val)
	return e.m.GuestWrite(gpa, b[:size])
}

func (e *emuEnv) In(port uint16, size int) (uint32, error) {
	return e.m.portRead(port, size), nil
}

func (e *emuEnv) Out(port uint16, size int, val uint32) error {
	e.m.portWrite(port, size, val)
	return nil
}

func (e *emuEnv) InvalidateTLB(st *x86.CPUState, all bool, va uint32) {}

// emulate runs the faulting instruction to completion in the VMM (§7.1:
// fetch, decode, execute with fixup, write back, advance). It is the
// handler for EPT-violation (MMIO) exits.
//
// The emulator is one interpreter per VMM, built on first use, over the
// emulation environment and the VMM's own copy of the guest state. Each
// exit copies the exit message's state in and resets what a fresh
// interpreter would start without (retired-instruction count, extra
// cycles, MSRs written by an earlier emulation), so every emulation
// behaves like one on a new interpreter. emulate is not re-entered: the
// one portal call an emulated store can make, a doorbell's call to the
// disk server, only programs the host controller, whose completion
// arrives later as an event.
func (m *VMM) emulate(msg *hypervisor.UTCB) error {
	m.K.ChargeUser(m.K.Plat.Cost.EmulateInstruction)
	// Recorded after the charge: the profiler's emulation sample is
	// taken at the event's time.
	m.record(trace.KindEmulate, uint64(msg.State.EIP), 0, 0, 0)

	// Exceptions raised by the emulated instruction are delivered
	// through the guest's IDT exactly as §7.1's fixup path does.
	if m.emu == nil {
		m.emu = x86.NewInterp(&emuEnv{m: m}, &m.emuState, x86.Intercepts{})
		m.emu.TSC = func() uint64 { return uint64(m.K.Now()) }
	}
	ip := m.emu
	m.emuState = msg.State
	ip.InstRet, ip.ExtraCycles = 0, 0
	clear(ip.MSRs)
	if err := ip.Step(); err != nil {
		// err may point into the interpreter (its exit record); the
		// kernel formats it before this VMM emulates again.
		return fmt.Errorf("vmm: emulation failed at eip=%#x: %w", msg.State.EIP, err)
	}
	msg.State = m.emuState
	return nil
}
