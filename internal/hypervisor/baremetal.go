package hypervisor

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/stat"
	"nova/internal/x86"
)

// BareMetal runs an operating system directly on the simulated
// platform with no virtualization layer at all: the paper's "Native"
// baseline. The OS owns the physical devices, receives hardware
// interrupts through its own IDT, and pays only its own page-walk
// costs.
type BareMetal struct {
	Plat   *hw.Platform
	State  x86.CPUState
	Interp *x86.Interp

	// Prof, when set, samples execution on the virtual-time grid (same
	// zero-perturbation contract as the kernel's profiler).
	Prof *prof.Profiler

	// Stat, when set, carries the native run's resource accounting
	// (instruction and device totals; a native run has no exits or IPC).
	Stat *stat.Registry

	// DisableSuperblocks turns off fused superblock execution
	// (x86.StepBlock) and single-steps every instruction. This is NOT
	// an ablation: superblocks are host-side machinery whose on/off
	// results are bit-identical; the switch exists for the A/B identity
	// harness and for debugging.
	DisableSuperblocks bool
}

// AttachProfiler enables virtual-time sampling on the native run.
//
// nocharge: observability plumbing; attaching the profiler models no
// hardware work and must not move the clock (zero-perturbation rule).
func (b *BareMetal) AttachProfiler(period uint64, capacity int) *prof.Profiler {
	cost := b.Plat.Cost
	meta := prof.Meta{Model: cost.Model.String(), FreqMHz: cost.FreqMHz}
	b.Prof = prof.New(meta, len(b.Plat.CPUs), period, capacity)
	read := profGuestReader(b.Plat.Mem, nil, &b.State)
	clk := &b.Plat.BootCPU().Clock
	b.Interp.StepHook = func() {
		b.Prof.Tick(0, clk.Now(), prof.ModeGuest, profCtx(&b.State, read))
	}
	return b.Prof
}

// AttachStats enables resource accounting on the native run: retired
// instructions plus the host device-model totals, so native and
// virtualized profiles of the same workload are directly comparable.
//
// nocharge: observability plumbing; attaching the registry models no
// hardware work and must not move the clock (zero-perturbation rule).
func (b *BareMetal) AttachStats(epochLen hw.Cycles) *stat.Registry {
	r := newStatRegistry(b.Plat, epochLen)
	b.Stat = r
	r.RegisterSampler(stat.Name("guest_instructions", "vm", "native", "vcpu", "0"),
		func() uint64 { return b.Interp.InstRet })
	statSuperblocks(r, b.Interp, "native", "0")
	return r
}

// ProfCodeReader returns a pure byte reader over the OS's address
// space, for Profiler.CaptureCode after a run.
func (b *BareMetal) ProfCodeReader() func(uint32) (byte, bool) {
	return profGuestByteReader(b.Plat.Mem, nil, &b.State)
}

// nativeEnv translates through the OS's own page tables (physical =
// linear when paging is off) and reaches devices directly.
type nativeEnv struct {
	plat *hw.Platform
}

type hostPhys struct{ mem *hw.Memory }

func (h hostPhys) ReadPhys32(pa uint64) (uint32, bool) {
	if pa+4 > h.mem.Size() {
		return 0, false
	}
	return h.mem.Read32(hw.PhysAddr(pa)), true
}

// nocharge: x86.Phys page-walker callback; the walker charges
// PageWalkLevel per level and the interpreter charges per instruction.
func (h hostPhys) WritePhys32(pa uint64, v uint32) bool {
	if pa+4 > h.mem.Size() {
		return false
	}
	h.mem.Write32(hw.PhysAddr(pa), v)
	return true
}

func (e *nativeEnv) translate(st *x86.CPUState, va uint32, write bool) (uint64, error) {
	if !st.PagingEnabled() {
		return uint64(va), nil
	}
	tlb := e.plat.BootCPU().TLB
	if pa, entry, ok := tlb.Translate(hw.HostTag, va); ok {
		if !write || entry.Writable {
			return uint64(pa), nil
		}
	}
	w, exc := x86.WalkGuest(hostPhys{e.plat.Mem}, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
	e.plat.BootCPU().Clock.Charge(hw.Cycles(w.Steps) * e.plat.Cost.PageWalkLevel)
	if exc != nil {
		return 0, exc
	}
	if w.Large {
		mask := uint64(tlb.LargePageSize() - 1)
		tlb.InsertLarge(hw.HostTag, va, w.PA&^mask>>12, w.Writable, w.User, w.Global)
	} else {
		tlb.InsertSmall(hw.HostTag, va, w.PA>>12, w.Writable, w.User, w.Global)
	}
	return w.PA, nil
}

// ExecPage implements x86.ExecPager: one translation of the fetch
// address — charged exactly like the slow path's first byte fetch —
// plus direct host access to the backing RAM page for the
// decoded-instruction cache.
func (e *nativeEnv) ExecPage(st *x86.CPUState, va uint32) ([]byte, uint64, uint64, error) {
	pa, err := e.translate(st, va, false)
	if err != nil {
		return nil, 0, 0, err
	}
	data, gen, ok := e.plat.Mem.CodePage(hw.PhysAddr(pa))
	if !ok {
		return nil, 0, 0, nil
	}
	return data, pa >> 12, gen, nil
}

func (e *nativeEnv) MemRead(st *x86.CPUState, va uint32, size int, kind x86.AccessKind) (uint32, error) {
	if crossesPage(va, size) {
		return splitRead(e, st, va, size, kind)
	}
	pa, err := e.translate(st, va, false)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint32(e.plat.Mem.Read8(hw.PhysAddr(pa))), nil
	case 2:
		return uint32(e.plat.Mem.Read16(hw.PhysAddr(pa))), nil
	default:
		return e.plat.Mem.Read32(hw.PhysAddr(pa)), nil
	}
}

func (e *nativeEnv) MemWrite(st *x86.CPUState, va uint32, size int, val uint32) error {
	if crossesPage(va, size) {
		return splitWrite(e, st, va, size, val)
	}
	pa, err := e.translate(st, va, true)
	if err != nil {
		return err
	}
	switch size {
	case 1:
		e.plat.Mem.Write8(hw.PhysAddr(pa), uint8(val))
	case 2:
		e.plat.Mem.Write16(hw.PhysAddr(pa), uint16(val))
	default:
		e.plat.Mem.Write32(hw.PhysAddr(pa), val)
	}
	return nil
}

func (e *nativeEnv) In(port uint16, size int) (uint32, error) {
	return e.plat.Ports.Read(port, size), nil
}

func (e *nativeEnv) Out(port uint16, size int, val uint32) error {
	e.plat.Ports.Write(port, size, val)
	return nil
}

func (e *nativeEnv) InvalidateTLB(st *x86.CPUState, all bool, va uint32) {
	tlb := e.plat.BootCPU().TLB
	if all {
		if st.CR4&x86.CR4PGE != 0 {
			tlb.FlushTag(hw.HostTag)
		} else {
			tlb.FlushAll()
		}
	} else {
		tlb.FlushVA(hw.HostTag, va)
	}
}

// NewBareMetal prepares a native run of the OS image already loaded in
// platform memory, entered at the given address in real mode.
func NewBareMetal(plat *hw.Platform, entry uint32) *BareMetal {
	b := &BareMetal{Plat: plat}
	b.State.Reset()
	b.State.EIP = entry
	env := &nativeEnv{plat: plat}
	b.Interp = x86.NewInterp(env, &b.State, x86.Intercepts{})
	b.Interp.Cache = x86.NewDecodeCache()
	b.Interp.TSC = func() uint64 { return uint64(plat.BootCPU().Clock.Now()) }
	return b
}

// Run executes until the deadline, the OS halts with no wakeup source,
// or a triple fault occurs.
func (b *BareMetal) Run(until hw.Cycles) error {
	clk := &b.Plat.BootCPU().Clock
	cost := b.Plat.Cost
	for clk.Now() < until {
		b.Plat.RunEventsUntil(clk.Now())
		pending := b.Plat.PIC.HasPending()
		if pending && b.Interp.Interruptible() {
			if vec, ok := b.Plat.PIC.Acknowledge(); ok {
				if err := b.Interp.Interrupt(vec); err != nil {
					return fmt.Errorf("hypervisor: native interrupt delivery: %w", err)
				}
			}
			continue
		}
		if b.State.Halted {
			if b.Plat.Queue.Empty() {
				return nil
			}
			t := b.Plat.Queue.NextTime()
			if t > until {
				clk.AdvanceTo(until)
				b.Prof.SkipIdle(0, clk.Now())
				return nil
			}
			clk.AdvanceTo(t)
			b.Prof.SkipIdle(0, clk.Now())
			continue
		}
		before := b.Interp.InstRet
		extraBefore := b.Interp.ExtraCycles
		var err error
		if max := b.fuseLimit(clk, until, pending); max > 1 {
			err = b.Interp.StepBlock(max)
		} else {
			err = b.Interp.Step()
		}
		retired := b.Interp.InstRet - before
		if retired == 0 {
			retired = 1
		}
		clk.Charge(hw.Cycles(retired)*cost.InstructionCost + hw.Cycles(b.Interp.ExtraCycles-extraBefore))
		if err != nil {
			return fmt.Errorf("hypervisor: native execution: %w", err)
		}
	}
	return nil
}

// fuseLimit mirrors Kernel.fuseLimit for the native run loop: fused
// instructions must fit strictly between now and the nearer of the
// next platform event and the deadline, and a pending interrupt forces
// single-stepping so delivery timing (including the STI shadow) stays
// per-instruction exact. pending is the caller's loop-top
// PIC.HasPending result; nothing between there and the step site can
// raise a line.
func (b *BareMetal) fuseLimit(clk *hw.Clock, until hw.Cycles, pending bool) uint64 {
	if b.DisableSuperblocks || b.Interp.Cache == nil {
		return 1
	}
	if pending {
		b.Interp.Cache.SB.CutPending++
		return 1
	}
	limit := until
	if !b.Plat.Queue.Empty() {
		if t := b.Plat.Queue.NextTime(); t < limit {
			limit = t
		}
	}
	now := clk.Now()
	if limit <= now {
		return 1
	}
	ic := b.Plat.Cost.InstructionCost
	if ic == 1 {
		return uint64(limit - now)
	}
	return uint64((limit - now + ic - 1) / ic)
}
