package hypervisor

// Profiler plumbing. Everything in this file is host-side observability
// riding the same zero-perturbation contract as the tracer: no cycle
// charges, no guest-visible state changes, no MMIO routing. The memory
// readers handed to the profiler's stack walker therefore go through
// hw.Memory.Page — the pure, bounds-checked, MMIO-declining window onto
// RAM — and guest page-table walks run with setAD=false so no
// accessed/dirty bits move.

import (
	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/trace"
	"nova/internal/x86"
)

// pureReadByte reads one byte of host-physical RAM with no side
// effects; MMIO and out-of-range addresses decline.
func pureReadByte(mem *hw.Memory, pa uint64) (byte, bool) {
	p, ok := mem.Page(hw.PhysAddr(pa))
	if !ok {
		return 0, false
	}
	return byte(p.Read(uint32(pa), 1)), true
}

// pureRead32 reads a little-endian 32-bit word of host-physical RAM
// with no side effects.
func pureRead32(mem *hw.Memory, pa uint64) (uint32, bool) {
	p, ok := mem.Page(hw.PhysAddr(pa))
	if !ok {
		return 0, false
	}
	if pa&(hw.PageSize-1)+4 <= hw.PageSize {
		return p.Read(uint32(pa), 4), true
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		b, ok := pureReadByte(mem, pa+i)
		if !ok {
			return 0, false
		}
		v |= uint32(b) << (8 * i)
	}
	return v, true
}

// profPhys adapts guest-physical space as x86.PhysMem for the
// profiler's side-effect-free page-table walks. With pd nil, addresses
// are host-physical already (bare metal).
type profPhys struct {
	mem *hw.Memory
	pd  *PD
}

func (p profPhys) ReadPhys32(pa uint64) (uint32, bool) {
	if p.pd != nil {
		hpa, _, ok := hostTranslate(p.pd, pa)
		if !ok {
			return 0, false
		}
		pa = hpa
	}
	return pureRead32(p.mem, pa)
}

// WritePhys32 always declines: profiler walks run with setAD=false and
// must stay read-only even if that ever changes.
func (p profPhys) WritePhys32(pa uint64, v uint32) bool { return false }

// profTranslate resolves a guest-virtual address to host-physical with
// no side effects: a pure walk of the guest page tables (when paging is
// on) followed by the domain's host translation. Any failure declines.
func profTranslate(mem *hw.Memory, pd *PD, st *x86.CPUState, va uint32) (uint64, bool) {
	pa := uint64(va)
	if st.PagingEnabled() {
		w, exc := x86.WalkGuest(profPhys{mem: mem, pd: pd}, st.CR3, st.CR4, va, false, false, false)
		if exc != nil {
			return 0, false
		}
		pa = w.PA
	}
	if pd != nil {
		hpa, _, ok := hostTranslate(pd, pa)
		if !ok {
			return 0, false
		}
		pa = hpa
	}
	return pa, true
}

// profGuestReader builds the pure 32-bit guest-virtual memory reader
// the profiler's EBP stack walker uses. pd nil means bare metal
// (guest-physical = host-physical).
func profGuestReader(mem *hw.Memory, pd *PD, st *x86.CPUState) prof.MemReader {
	return func(va uint32) (uint32, bool) {
		pa, ok := profTranslate(mem, pd, st, va)
		if !ok {
			return 0, false
		}
		return pureRead32(mem, pa)
	}
}

// profGuestByteReader is the byte-granular variant, for post-run code
// capture at hot addresses.
func profGuestByteReader(mem *hw.Memory, pd *PD, st *x86.CPUState) func(uint32) (byte, bool) {
	return func(va uint32) (byte, bool) {
		pa, ok := profTranslate(mem, pd, st, va)
		if !ok {
			return 0, false
		}
		return pureReadByte(mem, pa)
	}
}

// profCtx assembles the sampling context from a guest CPU state: the
// linear instruction address, the frame-pointer chain anchors, and the
// pure reader for the stack walk.
func profCtx(st *x86.CPUState, read prof.MemReader) prof.GuestCtx {
	return prof.GuestCtx{
		RIP:       st.Seg[x86.CS].Base + st.EIP,
		Def32:     st.Seg[x86.CS].Def32,
		EBP:       st.GPR[x86.EBP],
		StackBase: st.Seg[x86.SS].Base,
		CodeBase:  st.Seg[x86.CS].Base,
		Read:      read,
	}
}

// attachProfReader gives a vCPU the pure memory reader its guest
// samples walk the stack with; the run loop takes the samples
// (profSample).
func (k *Kernel) attachProfReader(ec *EC) {
	v := ec.VCPU
	v.profRead = profGuestReader(k.Plat.Mem, ec.PD, &v.State)
}

// profSample is the run loops' guest observation point, called at the
// step boundary before every step while a profiler is attached: when a
// sample is due on cpu it takes it, on the address about to run, and it
// returns cpu's next sample point for the loop to pass to fuseLimit
// with the deadline. A fused run then holds only instructions that
// start before that point, where a check before each would have sampled
// nothing, so fused and single-stepped runs record the same samples.
func profSample(p *prof.Profiler, cpu int, now hw.Cycles, st *x86.CPUState, read prof.MemReader) hw.Cycles {
	next := p.Next(cpu)
	if now >= next {
		p.Tick(cpu, now, prof.ModeGuest, profCtx(st, read))
		next = p.Next(cpu)
	}
	return next
}

// profFold is the profiler's fold of Kernel.Record: it attributes every
// VM-exit window, vTLB fill and VMM-emulated instruction, with its exact
// modeled cost, to the guest instruction that caused it, and takes the
// kernel- and emulation-mode samples those events are observation
// points for. cur is the EC dispatched on the recording CPU, the vCPU
// that exited, filled or is being emulated for. A sample context is
// built only when a sample is due.
func (k *Kernel) profFold(cur *EC, kind trace.Kind, a0, a1, a2 uint64) {
	switch kind {
	case trace.KindVMExit:
		// Taken here: the VMM's reply may move EIP before the resume.
		if v := cur.vcpuNamed(a2); v != nil {
			v.exitRIP = v.State.Seg[x86.CS].Base + v.State.EIP
			v.exitDef32 = v.State.Seg[x86.CS].Def32
		}
	case trace.KindVMResume:
		v := cur.vcpuNamed(a2)
		if v == nil {
			return
		}
		k.Prof.Attribute(prof.AttribExit, v.exitRIP, v.exitDef32, a1)
		if now := k.Now(); now >= k.Prof.Next(k.cpu) {
			g := profCtx(&v.State, v.profRead)
			g.RIP, g.Def32 = v.exitRIP, v.exitDef32
			k.Prof.Tick(k.cpu, now, prof.ModeKernel, g)
		}
	case trace.KindVTLBFill:
		if v := cur.vcpuNamed(a2); v != nil {
			cs := &v.State.Seg[x86.CS]
			k.Prof.Attribute(prof.AttribVTLBFill, cs.Base+v.State.EIP, cs.Def32, a1)
		}
	case trace.KindEmulate:
		// Only EPT-violation exits are emulated, and their message
		// carries the vCPU's whole state, so the vCPU's CS is the
		// emulated instruction's. The VMM records the event after it
		// charges the emulation, so the sample time includes the work.
		if cur == nil || cur.VCPU == nil {
			return
		}
		cs := &cur.VCPU.State.Seg[x86.CS]
		rip := cs.Base + uint32(a0)
		k.Prof.Attribute(prof.AttribEmulate, rip, cs.Def32, uint64(k.Plat.Cost.EmulateInstruction))
		k.Prof.Tick(k.cpu, k.Now(), prof.ModeEmulation, prof.GuestCtx{RIP: rip, Def32: cs.Def32})
	default:
		// The other kinds attribute nothing.
	}
}

// profServerTick gives the sampler an observation point after a server
// EC ran; server samples carry the EC id in place of a code address.
func (k *Kernel) profServerTick(ec *EC) {
	k.Prof.Tick(k.cpu, k.Now(), prof.ModeServer, prof.GuestCtx{RIP: uint32(ec.ID)})
}
