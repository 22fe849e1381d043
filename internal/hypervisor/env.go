package hypervisor

import (
	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// hostTranslate resolves a guest-physical address through the VM
// domain's memory space (the host page table).
func hostTranslate(pd *PD, gpa uint64) (hpa uint64, writable bool, ok bool) {
	frame, rights, ok := pd.Mem.Translate(uint32(gpa >> 12))
	if !ok {
		return 0, false, false
	}
	return frame<<12 | gpa&0xfff, rights&cap.RightWrite != 0, true
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

// guestEnv is the x86.Env of every interpreter the kernel and the
// bare-metal runner drive: the native OS on the boot CPU, and each vCPU
// under nested paging or the vTLB (§5.3). Everything but the TLB miss
// is shared: the TLB lookup, code-page fetch, RAM and MMIO access,
// port I/O and TLB maintenance. The miss path is picked by the env's
// own fields: no domain means native, a shadow table means vTLB.
//
// tlb and tag are cached at creation: an EC never changes CPU and a PD
// never changes tag.
type guestEnv struct {
	plat *hw.Platform
	mem  *hw.Memory
	tlb  *hw.TLB
	tag  hw.TLBTag
	clk  *hw.Clock // the clock the CPU's translation work is charged to

	// space is the domain's memory space, and memVer its version the
	// TLB entries under tag were made at. The native OS has no domain;
	// its space is empty and never changes.
	space  *cap.MemSpace
	memVer uint64

	// needPG is x86.CR0PG where translate consults the TLB only with
	// paging on (native and vTLB), and 0 under nested paging. It and
	// space spare memoHit the tests of pd and shadow, which keeps it
	// small enough to inline.
	needPG uint32

	// VM modes only: the kernel, the vCPU's EC and its domain. shadow
	// is set in vTLB mode.
	k      *Kernel
	ec     *EC
	pd     *PD
	shadow *ShadowPT

	// reads memoizes the TLB hits of reads and fetches, writes those
	// of writes (see memoHit).
	reads, writes memo

	// exit backs the EPT violations hostAccess returns: a *VMExit from
	// the env stays valid until its vCPU steps again.
	exit x86.VMExit
}

// memo is a direct-mapped cache of TLB hits, indexed by the low bits of
// the virtual page number, in the manner of QEMU's softmmu TLB.
type memo [64]memoEntry

// memoEntry is one memoized TLB hit: the virtual page ending at last
// maps, through the TLB entry ref, to the RAM page page.
type memoEntry struct {
	ref  hw.TLBRef
	page hw.Page
	last uint32 // va|0xfff for the page's va; 0 marks an empty entry
}

// entry returns the entry that may hold va's page.
func (h *memo) entry(va uint32) *memoEntry { return &h[va>>12%uint32(len(h))] }

// newNativeEnv is the front end of an OS running directly on the boot
// CPU: its own page tables, every port, host-tagged TLB entries.
func newNativeEnv(plat *hw.Platform) *guestEnv {
	return &guestEnv{
		plat: plat, mem: plat.Mem, tlb: plat.BootCPU().TLB, tag: hw.HostTag,
		clk: &plat.BootCPU().Clock, space: cap.NewMemSpace("native"), needPG: x86.CR0PG,
	}
}

// newVCPUEnv is the front end of vCPU ec: its CPU's TLB under its
// domain's tag, nested paging or, with v.Shadow set, the vTLB.
func newVCPUEnv(k *Kernel, ec *EC, v *VCPU) *guestEnv {
	e := &guestEnv{
		plat: k.Plat, mem: k.Plat.Mem, tlb: k.Plat.CPUs[ec.CPU].TLB, tag: ec.PD.Tag,
		clk:   &k.Plat.CPUs[ec.CPU].Clock,
		space: ec.PD.Mem, k: k, ec: ec, pd: ec.PD, shadow: v.Shadow,
	}
	if v.Shadow != nil {
		e.needPG = x86.CR0PG
	}
	return e
}

// memoHit reports whether memo entry m serves an access at va. An entry
// stands for the TLB hit that filled it and serves only while translate
// would repeat that hit: translate would consult the TLB (paging is on,
// or the guest is nested), the domain's memory has not changed since
// the TLB entries were made, and the TLB still holds the entry
// (hw.TLB.Hit). A memo hit counts as the TLB hit it stands for and
// changes nothing else.
func (e *guestEnv) memoHit(m *memoEntry, st *x86.CPUState, va uint32, write bool) bool {
	return m.last == va|0xfff && st.CR0&e.needPG == e.needPG && e.space.Version() == e.memVer &&
		e.tlb.Hit(&m.ref, write)
}

// access takes an access at va that memo entry m did not serve through
// translate, and fills m when translate hit the TLB and the access goes
// to plain RAM. It returns the page the access goes to, or with plain
// unset the host-physical address of a device window or of memory past
// RAM, which Memory's Read*/Write* must serve.
func (e *guestEnv) access(m *memoEntry, st *x86.CPUState, va uint32, write bool) (p hw.Page, pa uint64, plain bool, err error) {
	m.last = 0 // translate may overwrite m.ref
	pa, hit, err := e.translate(st, va, write, &m.ref)
	if err != nil {
		return p, 0, false, err
	}
	if p, plain = e.mem.Page(hw.PhysAddr(pa)); hit && plain {
		m.page, m.last = p, va|0xfff
	}
	return p, pa, plain, nil
}

// translate resolves a guest-virtual address to host-physical: a TLB
// hit costs nothing, a miss takes the mode's path. hit reports a TLB
// hit, and *ref then refers to its entry. In a VM the TLB entries of
// the domain's tag are dropped first whenever its memory changed since
// they were made, so revoked memory is never reached through a stale
// entry (§4.2), whichever CPU revoked it.
func (e *guestEnv) translate(st *x86.CPUState, va uint32, write bool, ref *hw.TLBRef) (pa uint64, hit bool, err error) {
	if v := e.space.Version(); v != e.memVer {
		e.memVer = v
		e.tlb.FlushTag(e.tag)
	}
	paging := st.PagingEnabled()
	if !paging && e.pd == nil {
		return uint64(va), false, nil // native, paging off: linear is physical
	}
	// The vTLB with paging off translates through the host page table
	// alone and bypasses the TLB.
	if paging || e.shadow == nil {
		if pa, ok := e.tlb.Translate(e.tag, va, ref); ok && (!write || ref.Entry().Writable) {
			return uint64(pa), true, nil
		}
		// A write through a read-only entry takes the miss path, which
		// decides which layer denies it.
	}
	switch {
	case e.pd == nil:
		pa, err = e.walkNative(st, va, write)
	case e.shadow == nil:
		pa, err = e.walkNested(st, va, write, paging)
	default:
		pa, err = e.fillShadow(st, va, write, paging)
	}
	return pa, false, err
}

// walkNative is the native TLB miss: the MMU walks the OS's page
// tables.
func (e *guestEnv) walkNative(st *x86.CPUState, va uint32, write bool) (uint64, error) {
	w, exc := x86.WalkGuest(e, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
	e.plat.BootCPU().Clock.Charge(hw.Cycles(w.Steps) * e.plat.Cost.PageWalkLevel)
	if exc != nil {
		return 0, exc
	}
	if w.Large {
		mask := uint64(e.tlb.LargePageSize() - 1)
		e.tlb.InsertLarge(e.tag, va, w.PA&^mask>>12, w.Writable, w.User, w.Global)
	} else {
		e.tlb.InsertSmall(e.tag, va, w.PA>>12, w.Writable, w.User, w.Global)
	}
	return w.PA, nil
}

// walkNested is the EPT TLB miss: the hardware two-dimensional walk.
func (e *guestEnv) walkNested(st *x86.CPUState, va uint32, write, paging bool) (uint64, error) {
	cost := e.plat.Cost
	var gpa uint64
	var guestW, guestLarge, guestGlobal bool
	if paging {
		w, exc := x86.WalkGuest(e, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
		// Each guest level is itself translated through the host tables.
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

	hpa, hostW, err := e.hostAccess(gpa, write)
	if err != nil {
		return 0, err
	}
	if write && !guestW {
		return 0, x86.PageFault(va, true, true, false)
	}

	writable := guestW && hostW
	if guestLarge && e.pd.HostLargePages {
		// The combined entry covers a large page only when both guest
		// and host mappings are large (Figure 5's small-host-pages bars
		// lose exactly this).
		mask := uint64(e.tlb.LargePageSize() - 1)
		e.tlb.InsertLarge(e.tag, va, (hpa&^mask)>>12, writable, true, guestGlobal)
	} else {
		e.tlb.InsertSmall(e.tag, va, hpa>>12, writable, true, guestGlobal)
	}
	return hpa, nil
}

// fillShadow is the vTLB miss: the MMU walks the shadow table, and a
// shadow miss exits into the microhypervisor, which walks the guest's
// tables and fills the shadow entry (§5.3).
func (e *guestEnv) fillShadow(st *x86.CPUState, va uint32, write, paging bool) (uint64, error) {
	if !paging {
		hpa, _, err := e.hostAccess(uint64(va), write)
		return hpa, err
	}
	cost := e.plat.Cost
	vpn := va >> 12
	if se := e.shadow.lookup(vpn); se != nil && se.memVer == e.memVer {
		if !write || se.guestW && se.hostW {
			e.k.charge(2 * cost.PageWalkLevel) // MMU walk of the shadow table
			e.tlb.InsertSmall(e.tag, va, se.hpaPage, se.guestW && se.hostW, true, false)
			return se.hpaPage<<12 | uint64(va&0xfff), nil
		}
	}

	// World switch into the microhypervisor, six VMREADs to determine
	// the cause, then the one-dimensional guest walk enabled by running
	// on the VM's host page table, and the shadow fill.
	t0 := e.k.Now()
	e.k.charge(cost.VMTransitCost(e.k.tagged()) + 6*cost.VMRead)
	e.k.flushOnWorldSwitch(e.ec)

	w, exc := x86.WalkGuest(e, st.CR3, st.CR4, va, write, st.CR0&x86.CR0WP != 0, true)
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
		e.ec.VCPU.Exits[x86.ExitException]++
		return 0, exc
	}

	hpa, hostW, err := e.hostAccess(w.PA, write)
	if err != nil {
		return 0, err
	}

	// Shadow page-table update (two entries touched).
	e.k.charge(2 * cost.CacheLineAccess)
	e.shadow.fill(vpn, shadowEntry{hpaPage: hpa >> 12, guestW: w.Writable, hostW: hostW, memVer: e.memVer})
	e.k.Record(trace.KindVTLBFill, uint64(va), uint64(e.k.Now()-t0), uint64(e.ec.ID), 0)
	e.tlb.InsertSmall(e.tag, va, hpa>>12, w.Writable && hostW, true, false)
	return hpa, nil
}

// hostAccess checks an access to guest-physical gpa against the
// domain's memory space: an unmapped page, or a write to a read-only
// one, is an EPT violation.
func (e *guestEnv) hostAccess(gpa uint64, write bool) (hpa uint64, writable bool, err error) {
	hpa, writable, ok := hostTranslate(e.pd, gpa)
	if !ok || write && !writable {
		e.exit = x86.VMExit{Reason: x86.ExitEPTViolation, GPA: gpa, Write: write}
		return 0, false, &e.exit
	}
	return hpa, writable, nil
}

// ReadPhys32 implements x86.PhysMem for the page walks: the native OS's
// tables are in host memory, a guest's are in its guest-physical space.
func (e *guestEnv) ReadPhys32(pa uint64) (uint32, bool) {
	hpa, _, ok := e.tableAddr(pa)
	if !ok {
		return 0, false
	}
	return e.mem.Read32(hw.PhysAddr(hpa)), true
}

// WritePhys32 sets accessed and dirty bits for the page walks.
//
// nocharge: x86.PhysMem page-walker callback; walk steps are charged by
// the miss path (per level natively and nested, per step in the vTLB
// fill), not per memory touch.
func (e *guestEnv) WritePhys32(pa uint64, v uint32) bool {
	hpa, w, ok := e.tableAddr(pa)
	if !ok || !w {
		return false
	}
	e.mem.Write32(hw.PhysAddr(hpa), v)
	return true
}

// tableAddr resolves the address of a page-table entry to host memory.
func (e *guestEnv) tableAddr(pa uint64) (hpa uint64, writable, ok bool) {
	if e.pd == nil {
		return pa, true, pa+4 <= e.mem.Size()
	}
	return hostTranslate(e.pd, pa)
}

// ExecPage implements x86.ExecPager: one translation of the fetch
// address (charged, traced and faulting exactly like the slow path's
// first byte fetch) plus direct host access to the backing RAM page and
// its code map for the decoded-instruction cache. MMIO-backed pages are
// declined (nil data) so fetch side effects stay on the MMIO-routed
// path. charged is how far the translation moved the CPU's clock.
func (e *guestEnv) ExecPage(st *x86.CPUState, va uint32) ([]byte, x86.CodeMap, uint64, uint64, uint64, error) {
	m := e.reads.entry(va)
	p := m.page
	var charged hw.Cycles
	if !e.memoHit(m, st, va, false) {
		before := e.clk.Now()
		q, _, plain, err := e.access(m, st, va, false)
		if err != nil || !plain {
			return nil, nil, 0, 0, 0, err
		}
		p, charged = q, e.clk.Now()-before
	}
	data, code, frame, gen := p.View()
	return data, code, frame, gen, uint64(charged), nil
}

// FreeAccess implements x86.ExecPager: whether MemRead (write false) or
// MemWrite (write true) of n bytes at va would take its memo-hit branch
// and, for a store, leave the page's write generation alone. It repeats
// memoHit's test without counting the TLB hit, which the access itself
// then counts, and refuses an access that crosses a page end, which
// the interpreter would split into byte accesses.
func (e *guestEnv) FreeAccess(st *x86.CPUState, va uint32, n int, write bool) bool {
	if va&(hw.PageSize-1)+uint32(n) > hw.PageSize {
		return false
	}
	m := e.reads.entry(va)
	if write {
		m = e.writes.entry(va)
	}
	return m.last == va|0xfff && st.CR0&e.needPG == e.needPG && e.space.Version() == e.memVer &&
		e.tlb.Peek(&m.ref, write) && !(write && m.page.OverlapsCode(va, n))
}

// MemRead implements x86.Env. Device windows route to their MMIO
// handlers, which matters for passthrough mappings.
func (e *guestEnv) MemRead(st *x86.CPUState, va uint32, size int, kind x86.AccessKind) (uint32, error) {
	m := e.reads.entry(va)
	if e.memoHit(m, st, va, false) {
		return m.page.Read(va, size), nil
	}
	p, pa, plain, err := e.access(m, st, va, false)
	switch {
	case err != nil:
		return 0, err
	case plain:
		return p.Read(va, size), nil
	case size == 1:
		return uint32(e.mem.Read8(hw.PhysAddr(pa))), nil
	case size == 2:
		return uint32(e.mem.Read16(hw.PhysAddr(pa))), nil
	}
	return e.mem.Read32(hw.PhysAddr(pa)), nil
}

// MemWrite implements x86.Env.
func (e *guestEnv) MemWrite(st *x86.CPUState, va uint32, size int, val uint32) error {
	m := e.writes.entry(va)
	if e.memoHit(m, st, va, true) {
		m.page.Write(va, size, val)
		return nil
	}
	p, pa, plain, err := e.access(m, st, va, true)
	switch {
	case err != nil:
		return err
	case plain:
		p.Write(va, size, val)
	case size == 1:
		e.mem.Write8(hw.PhysAddr(pa), uint8(val))
	case size == 2:
		e.mem.Write16(hw.PhysAddr(pa), uint16(val))
	default:
		e.mem.Write32(hw.PhysAddr(pa), val)
	}
	return nil
}

// In implements x86.Env for non-intercepted I/O; see ioAllowed.
func (e *guestEnv) In(port uint16, size int) (uint32, error) {
	if !e.ioAllowed(port, size) {
		return 0, x86.GPFault(0)
	}
	return e.plat.Ports.Read(port, size), nil
}

// Out implements x86.Env; see In.
func (e *guestEnv) Out(port uint16, size int, val uint32) error {
	if !e.ioAllowed(port, size) {
		return x86.GPFault(0)
	}
	e.plat.Ports.Write(port, size, val)
	return nil
}

// ioAllowed reports whether an access of size ports from port may
// proceed. The native OS owns every port; a VM reaches only those its
// domain's I/O space holds (passthrough guests, §4.2). As VT-x checks
// the I/O-bitmap bit of every port an access touches, every port must
// be held, and an access that wraps past 0xffff is denied.
func (e *guestEnv) ioAllowed(port uint16, size int) bool {
	if e.pd == nil {
		return true
	}
	for p := int(port); p < int(port)+size; p++ {
		if p > 0xffff || !e.pd.IO.Allowed(uint16(p)) {
			return false
		}
	}
	return true
}

// InvalidateTLB implements x86.Env for CR writes and INVLPG that do not
// trap. Under the vTLB they trap unless the intercepts are off, and the
// kernel's intercept path handles them.
func (e *guestEnv) InvalidateTLB(st *x86.CPUState, all bool, va uint32) {
	if e.shadow != nil {
		if all {
			e.shadow.Flush()
		} else {
			e.shadow.Invalidate(va)
		}
	}
	switch {
	case !all:
		e.tlb.FlushVA(e.tag, va)
	case e.pd == nil && st.CR4&x86.CR4PGE == 0:
		// Native, without global pages: everything goes.
		e.tlb.FlushAll()
	default:
		e.tlb.FlushTag(e.tag)
	}
}

// flushOnWorldSwitch flushes the TLB of ec's CPU on a VM transition
// when the hardware lacks tagged TLBs (VPID).
func (k *Kernel) flushOnWorldSwitch(ec *EC) {
	if !k.tagged() {
		k.Plat.CPUs[ec.CPU].TLB.FlushAll()
	}
}
