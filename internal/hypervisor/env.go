package hypervisor

import (
	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// physRead accesses host-physical memory (routing device windows to
// their MMIO handlers, which matters for passthrough mappings).
func (k *Kernel) physRead(pa uint64, size int) uint32 {
	switch size {
	case 1:
		return uint32(k.Plat.Mem.Read8(hw.PhysAddr(pa)))
	case 2:
		return uint32(k.Plat.Mem.Read16(hw.PhysAddr(pa)))
	default:
		return k.Plat.Mem.Read32(hw.PhysAddr(pa))
	}
}

func (k *Kernel) physWrite(pa uint64, size int, v uint32) {
	switch size {
	case 1:
		k.Plat.Mem.Write8(hw.PhysAddr(pa), uint8(v))
	case 2:
		k.Plat.Mem.Write16(hw.PhysAddr(pa), uint16(v))
	default:
		k.Plat.Mem.Write32(hw.PhysAddr(pa), v)
	}
}

// hostTranslate resolves a guest-physical address through the VM
// domain's memory space (the host page table).
func hostTranslate(pd *PD, gpa uint64) (hpa uint64, writable bool, ok bool) {
	frame, rights, ok := pd.Mem.Translate(uint32(gpa >> 12))
	if !ok {
		return 0, false, false
	}
	return frame<<12 | gpa&0xfff, rights&cap.RightWrite != 0, true
}

// gpaPhys adapts a VM's guest-physical space as x86.PhysMem for guest
// page-table walks. Each environment holds one and passes a pointer to
// it, so a walk converts no value to the interface.
type gpaPhys struct {
	k  *Kernel
	pd *PD
}

func (g *gpaPhys) ReadPhys32(pa uint64) (uint32, bool) {
	hpa, _, ok := hostTranslate(g.pd, pa)
	if !ok {
		return 0, false
	}
	return g.k.Plat.Mem.Read32(hw.PhysAddr(hpa)), true
}

// nocharge: x86.Phys page-walker callback; walk steps are charged by
// the vTLB fill / nested-walk cost accounting, not per memory touch.
func (g *gpaPhys) WritePhys32(pa uint64, v uint32) bool {
	hpa, w, ok := hostTranslate(g.pd, pa)
	if !ok || !w {
		return false
	}
	g.k.Plat.Mem.Write32(hw.PhysAddr(hpa), v)
	return true
}

// ShadowPT is the per-vCPU shadow page table of the vTLB algorithm
// (§5.3): the translation the hardware MMU actually uses in shadow
// paging mode, filled lazily from the guest's page tables. Like the
// guest's own tables it has two levels of 1024 entries, indexed by the
// top and middle ten bits of the virtual address. An entry is live when
// it carries the table's current epoch, so a flush is one increment.
type ShadowPT struct {
	dir   [1024]*shadowLeaf
	epoch uint32
	live  int

	Fills   uint64
	Flushes uint64
}

type shadowLeaf [1024]shadowEntry

type shadowEntry struct {
	hpaPage uint64
	memVer  uint64 // pd.Mem.Version() at fill time
	epoch   uint32 // live when equal to ShadowPT.epoch; 0 is never current
	guestW  bool
	hostW   bool
}

// NewShadowPT creates an empty shadow page table.
func NewShadowPT() *ShadowPT {
	return &ShadowPT{epoch: 1}
}

// lookup returns the live entry for vpn, or nil.
func (s *ShadowPT) lookup(vpn uint32) *shadowEntry {
	if l := s.dir[vpn>>10&1023]; l != nil {
		if e := &l[vpn&1023]; e.epoch == s.epoch {
			return e
		}
	}
	return nil
}

// fill installs the entry for vpn.
func (s *ShadowPT) fill(vpn uint32, e shadowEntry) {
	l := s.dir[vpn>>10&1023]
	if l == nil {
		l = new(shadowLeaf)
		s.dir[vpn>>10&1023] = l
	}
	p := &l[vpn&1023]
	if p.epoch != s.epoch {
		s.live++
	}
	e.epoch = s.epoch
	*p = e
	s.Fills++
}

// Flush drops all shadow entries (guest CR3 write / CR0 paging change).
// When the epoch wraps, every leaf is cleared so that no entry of an
// earlier epoch can become live again.
//
// nocharge: data-structure operation; the vTLB intercept that triggers
// it (handleVTLBExit) charges the intercept, and the cost of the flush
// itself is not modelled.
func (s *ShadowPT) Flush() {
	s.Flushes++
	s.live = 0
	if s.epoch++; s.epoch == 0 {
		for _, l := range s.dir {
			if l != nil {
				*l = shadowLeaf{}
			}
		}
		s.epoch = 1
	}
}

// Invalidate drops the entry covering va (guest INVLPG).
//
// nocharge: charged by the INVLPG intercept path (handleVTLBExit).
func (s *ShadowPT) Invalidate(va uint32) {
	if e := s.lookup(va >> 12); e != nil {
		e.epoch = 0
		s.live--
	}
}

// Len returns the number of live shadow entries.
func (s *ShadowPT) Len() int { return s.live }

// splitRead handles accesses that cross a page boundary byte-by-byte.
func splitRead(env x86.Env, st *x86.CPUState, va uint32, size int, kind x86.AccessKind) (uint32, error) {
	var v uint32
	for i := size - 1; i >= 0; i-- {
		b, err := env.MemRead(st, va+uint32(i), 1, kind)
		if err != nil {
			return 0, err
		}
		v = v<<8 | b&0xff
	}
	return v, nil
}

func splitWrite(env x86.Env, st *x86.CPUState, va uint32, size int, val uint32) error {
	for i := 0; i < size; i++ {
		if err := env.MemWrite(st, va+uint32(i), 1, val>>(8*uint(i))); err != nil {
			return err
		}
	}
	return nil
}

func crossesPage(va uint32, size int) bool {
	return va&0xfff+uint32(size) > hw.PageSize
}

// guestIOAccess implements non-intercepted port I/O for passthrough
// guests: the domain's I/O space gates access to the physical ports.
func guestIOAccess(k *Kernel, pd *PD, port uint16) bool {
	return pd.IO.Allowed(port)
}

// ---------------------------------------------------------------------
// EPT environment: hardware nested paging.
// ---------------------------------------------------------------------

type eptEnv struct {
	k    *Kernel
	ec   *EC
	phys gpaPhys

	// memVer tracks pd.Mem.Version(); mapping changes flush cached
	// translations.
	memVer uint64
}

func newEPTEnv(k *Kernel, ec *EC) *eptEnv {
	return &eptEnv{k: k, ec: ec, phys: gpaPhys{k, ec.PD}}
}

func (e *eptEnv) tag() hw.TLBTag { return e.ec.PD.Tag }

func (e *eptEnv) tlb() *hw.TLB { return e.k.Plat.CPUs[e.ec.CPU].TLB }

func (e *eptEnv) checkVer() {
	if v := e.ec.PD.Mem.Version(); v != e.memVer {
		e.memVer = v
		e.tlb().FlushTag(e.tag())
	}
}

// translate resolves a guest-virtual address, performing the hardware
// two-dimensional page walk on TLB misses.
func (e *eptEnv) translate(st *x86.CPUState, va uint32, write bool) (uint64, error) {
	e.checkVer()
	tlb := e.tlb()
	if pa, entry, ok := tlb.Translate(e.tag(), va); ok {
		if !write || entry.Writable {
			return uint64(pa), nil
		}
		// Slow path below decides which layer denies the write.
	}

	cost := e.k.Plat.Cost
	var gpa uint64
	var guestW, guestLarge, guestGlobal bool
	if st.PagingEnabled() {
		w, exc := x86.WalkGuest(&e.phys, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
		// Hardware 2-D walk: each guest level is itself translated
		// through the host tables.
		steps := (w.Steps+1)*(cost.HostPTLevels+1) - 1
		e.k.charge(hw.Cycles(steps) * cost.PageWalkLevel)
		if exc != nil {
			return 0, exc
		}
		gpa = w.PA
		guestW, guestLarge, guestGlobal = w.Writable, w.Large, w.Global
	} else {
		gpa = uint64(va)
		guestW, guestLarge = true, true
		e.k.charge(hw.Cycles(cost.HostPTLevels) * cost.PageWalkLevel)
	}

	hpa, hostW, ok := hostTranslate(e.ec.PD, gpa)
	if !ok {
		return 0, &x86.VMExit{Reason: x86.ExitEPTViolation, GPA: gpa, Write: write}
	}
	if write && !hostW {
		return 0, &x86.VMExit{Reason: x86.ExitEPTViolation, GPA: gpa, Write: true}
	}
	if write && !guestW {
		return 0, x86.PageFault(va, true, true, false)
	}

	writable := guestW && hostW
	if guestLarge && e.ec.PD.HostLargePages {
		// The combined entry covers a large page only when both guest
		// and host mappings are large (Figure 5's small-host-pages bars
		// lose exactly this).
		mask := uint64(tlb.LargePageSize() - 1)
		base := hpa &^ mask
		tlb.InsertLarge(e.tag(), va, base>>12, writable, true, guestGlobal)
	} else {
		tlb.InsertSmall(e.tag(), va, hpa>>12, writable, true, guestGlobal)
	}
	return hpa, nil
}

// ExecPage implements x86.ExecPager: one translation of the fetch
// address — charged, traced and faulting exactly like the slow path's
// first byte fetch — plus direct host access to the backing RAM page for
// the decoded-instruction cache. MMIO-backed pages are declined (nil
// data) so fetch side effects stay on the MMIO-routed path.
func (e *eptEnv) ExecPage(st *x86.CPUState, va uint32) ([]byte, uint64, uint64, error) {
	hpa, err := e.translate(st, va, false)
	if err != nil {
		return nil, 0, 0, err
	}
	data, gen, ok := e.k.Plat.Mem.CodePage(hw.PhysAddr(hpa))
	if !ok {
		return nil, 0, 0, nil
	}
	return data, hpa >> 12, gen, nil
}

func (e *eptEnv) MemRead(st *x86.CPUState, va uint32, size int, kind x86.AccessKind) (uint32, error) {
	if crossesPage(va, size) {
		return splitRead(e, st, va, size, kind)
	}
	hpa, err := e.translate(st, va, false)
	if err != nil {
		return 0, err
	}
	return e.k.physRead(hpa, size), nil
}

func (e *eptEnv) MemWrite(st *x86.CPUState, va uint32, size int, val uint32) error {
	if crossesPage(va, size) {
		return splitWrite(e, st, va, size, val)
	}
	hpa, err := e.translate(st, va, true)
	if err != nil {
		return err
	}
	e.k.physWrite(hpa, size, val)
	return nil
}

func (e *eptEnv) In(port uint16, size int) (uint32, error) {
	if !guestIOAccess(e.k, e.ec.PD, port) {
		return 0, x86.GPFault(0)
	}
	return e.k.Plat.Ports.Read(port, size), nil
}

func (e *eptEnv) Out(port uint16, size int, val uint32) error {
	if !guestIOAccess(e.k, e.ec.PD, port) {
		return x86.GPFault(0)
	}
	e.k.Plat.Ports.Write(port, size, val)
	return nil
}

func (e *eptEnv) InvalidateTLB(st *x86.CPUState, all bool, va uint32) {
	if all {
		e.tlb().FlushTag(e.tag())
	} else {
		e.tlb().FlushVA(e.tag(), va)
	}
}

func (e *eptEnv) FlushOnWorldSwitch() {
	if !e.k.tagged() {
		e.tlb().FlushAll()
	}
}

// ---------------------------------------------------------------------
// vTLB environment: shadow paging (§5.3).
// ---------------------------------------------------------------------

type vtlbEnv struct {
	k    *Kernel
	ec   *EC
	phys gpaPhys
}

func newVTLBEnv(k *Kernel, ec *EC) *vtlbEnv {
	return &vtlbEnv{k: k, ec: ec, phys: gpaPhys{k, ec.PD}}
}

func (e *vtlbEnv) tag() hw.TLBTag { return e.ec.PD.Tag }

func (e *vtlbEnv) tlb() *hw.TLB { return e.k.Plat.CPUs[e.ec.CPU].TLB }

func (e *vtlbEnv) translate(st *x86.CPUState, va uint32, write bool) (uint64, error) {
	v := e.ec.VCPU
	cost := e.k.Plat.Cost

	if !st.PagingEnabled() {
		// Real mode / paging off: identity guest mapping through the
		// host page table only.
		hpa, hostW, ok := hostTranslate(e.ec.PD, uint64(va))
		if !ok {
			return 0, &x86.VMExit{Reason: x86.ExitEPTViolation, GPA: uint64(va), Write: write}
		}
		if write && !hostW {
			return 0, &x86.VMExit{Reason: x86.ExitEPTViolation, GPA: uint64(va), Write: true}
		}
		return hpa, nil
	}

	vpn := va >> 12
	// Hardware TLB first, then the shadow page table (a regular
	// two-level table the MMU walks on TLB misses).
	if pa, entry, ok := e.tlb().Translate(e.tag(), va); ok {
		if !write || entry.Writable {
			return uint64(pa), nil
		}
	}
	if se := v.Shadow.lookup(vpn); se != nil && se.memVer == e.ec.PD.Mem.Version() {
		if !write || se.guestW && se.hostW {
			e.k.charge(2 * cost.PageWalkLevel) // MMU walk of the shadow table
			e.tlb().InsertSmall(e.tag(), va, se.hpaPage, se.guestW && se.hostW, true, false)
			return se.hpaPage<<12 | uint64(va&0xfff), nil
		}
	}

	// vTLB miss: world switch into the microhypervisor, six VMREADs to
	// determine the cause, then the one-dimensional guest walk enabled
	// by running on the VM's host page table (§5.3), and the shadow
	// fill.
	t0 := e.k.Now()
	e.k.charge(cost.VMTransitCost(e.k.tagged()) + 6*cost.VMRead)
	if !e.k.tagged() {
		e.tlb().FlushAll()
	}

	w, exc := x86.WalkGuest(&e.phys, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
	perStep := cost.CacheLineAccess
	if e.k.Cfg.DisableVTLBTrick {
		// Without running on the VM's host page table, each guest
		// page-table entry read needs a software GPA->HPA translation
		// (§5.3: the trick makes the two-dimensional walk
		// one-dimensional for software).
		perStep += hw.Cycles(cost.HostPTLevels) * cost.CacheLineAccess
	}
	e.k.charge(hw.Cycles(w.Steps) * perStep)
	if exc != nil {
		// The guest's own page fault: forwarded into the guest. This is
		// Table 2's "Guest Page Fault" row.
		e.k.Stats.GuestPageFault++
		v.Exits[x86.ExitException]++
		return 0, exc
	}

	hpa, hostW, ok := hostTranslate(e.ec.PD, w.PA)
	if !ok {
		return 0, &x86.VMExit{Reason: x86.ExitEPTViolation, GPA: w.PA, Write: write}
	}
	if write && !hostW {
		return 0, &x86.VMExit{Reason: x86.ExitEPTViolation, GPA: w.PA, Write: true}
	}

	// Shadow page-table update (two entries touched).
	e.k.charge(2 * cost.CacheLineAccess)
	v.Shadow.fill(vpn, shadowEntry{
		hpaPage: hpa >> 12, guestW: w.Writable, hostW: hostW,
		memVer: e.ec.PD.Mem.Version(),
	})
	end := e.k.Now()
	e.k.Record(trace.KindVTLBFill, uint64(va), uint64(end-t0), uint64(e.ec.ID), 0)
	e.k.profVTLBFill(st, end-t0)
	e.tlb().InsertSmall(e.tag(), va, hpa>>12, w.Writable && hostW, true, false)
	return hpa, nil
}

// ExecPage implements x86.ExecPager; see eptEnv.ExecPage. The vTLB
// translate path emits fill traces and charges world-switch costs on
// misses exactly as the slow path's first byte fetch would.
func (e *vtlbEnv) ExecPage(st *x86.CPUState, va uint32) ([]byte, uint64, uint64, error) {
	hpa, err := e.translate(st, va, false)
	if err != nil {
		return nil, 0, 0, err
	}
	data, gen, ok := e.k.Plat.Mem.CodePage(hw.PhysAddr(hpa))
	if !ok {
		return nil, 0, 0, nil
	}
	return data, hpa >> 12, gen, nil
}

func (e *vtlbEnv) MemRead(st *x86.CPUState, va uint32, size int, kind x86.AccessKind) (uint32, error) {
	if crossesPage(va, size) {
		return splitRead(e, st, va, size, kind)
	}
	hpa, err := e.translate(st, va, false)
	if err != nil {
		return 0, err
	}
	return e.k.physRead(hpa, size), nil
}

func (e *vtlbEnv) MemWrite(st *x86.CPUState, va uint32, size int, val uint32) error {
	if crossesPage(va, size) {
		return splitWrite(e, st, va, size, val)
	}
	hpa, err := e.translate(st, va, true)
	if err != nil {
		return err
	}
	e.k.physWrite(hpa, size, val)
	return nil
}

func (e *vtlbEnv) In(port uint16, size int) (uint32, error) {
	if !guestIOAccess(e.k, e.ec.PD, port) {
		return 0, x86.GPFault(0)
	}
	return e.k.Plat.Ports.Read(port, size), nil
}

func (e *vtlbEnv) Out(port uint16, size int, val uint32) error {
	if !guestIOAccess(e.k, e.ec.PD, port) {
		return x86.GPFault(0)
	}
	e.k.Plat.Ports.Write(port, size, val)
	return nil
}

func (e *vtlbEnv) InvalidateTLB(st *x86.CPUState, all bool, va uint32) {
	// Only reached when CR/INVLPG intercepts are off; the kernel's
	// intercept path normally handles these.
	v := e.ec.VCPU
	if all {
		v.Shadow.Flush()
		e.tlb().FlushTag(e.tag())
	} else {
		v.Shadow.Invalidate(va)
		e.tlb().FlushVA(e.tag(), va)
	}
}

func (e *vtlbEnv) FlushOnWorldSwitch() {
	if !e.k.tagged() {
		e.tlb().FlushAll()
	}
}
