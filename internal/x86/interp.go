package x86

import "fmt"

// Interp executes instructions for one virtual CPU. It is the substitute
// for hardware guest mode: sensitive instructions and intercepted events
// produce *VMExit errors exactly where VT-x would trap to the
// microhypervisor; guest-visible faults are delivered through the guest's
// IDT like hardware would.
type Interp struct {
	Env Env
	IC  Intercepts
	St  *CPUState

	// InstRet counts retired instructions (including REP iterations);
	// the binding layer charges cycle costs from it.
	InstRet uint64

	// ExtraCycles accumulates additional latency of slow instructions
	// (DIV, MUL) beyond the base per-instruction cost; the binding
	// layer charges the delta alongside InstRet.
	ExtraCycles uint64

	// TSC, if set, supplies RDTSC values; otherwise a per-instruction
	// counter is used.
	TSC func() uint64

	// MSRs backs non-intercepted RDMSR/WRMSR.
	MSRs map[uint32]uint64

	// Cache, when set, memoizes instruction decode per physical code
	// page. Host-side only: attaching or detaching it never changes
	// simulated cycles, traces or guest state. It takes effect only
	// when Env also implements ExecPager.
	Cache *DecodeCache

	// pager is Env's ExecPager extension, captured once at creation.
	pager ExecPager

	// The interpreter owns the records its steps hand out: exit backs
	// every *VMExit that exec returns, and fetch and inst the slow
	// path's per-byte decode (decodeSlow). A returned *VMExit or *Inst
	// stays valid until the interpreter steps again.
	exit  VMExit
	fetch execFetcher
	inst  Inst
}

// NewInterp binds an interpreter to an environment and CPU state.
func NewInterp(env Env, st *CPUState, ic Intercepts) *Interp {
	ip := &Interp{Env: env, St: st, IC: ic, MSRs: make(map[uint32]uint64)}
	ip.pager, _ = env.(ExecPager)
	return ip
}

type execFetcher struct {
	ip  *Interp
	pos uint32
}

func (f *execFetcher) FetchByte() (byte, error) {
	st := f.ip.St
	v, err := f.ip.Env.MemRead(st, st.Seg[CS].Base+f.pos, 1, AccessExec)
	if err != nil {
		return 0, err
	}
	f.pos++
	return byte(v), nil
}

// fetchDecode produces the instruction at CS:EIP — through the decoded-
// instruction cache when the environment exposes direct code-page access
// and a cache is attached, else by per-byte fetch through Env.MemRead.
//
// Charge identity: the fast path performs exactly one translation of the
// fetch address, which is also what the slow path charges — only the
// first byte's MemRead can miss the TLB; the remaining bytes of an
// in-page fetch hit the translation just inserted, for free. Everything
// else the fast path skips (per-byte MemRead calls, re-decode) is host
// work with no simulated cost, so cycles, traces and faults are
// bit-identical either way.
func (ip *Interp) fetchDecode(st *CPUState) (*Inst, error) {
	def32 := st.Seg[CS].Def32
	if ip.Cache != nil && ip.pager != nil {
		va := st.Seg[CS].Base + st.EIP
		data, code, page, gen, _, err := ip.pager.ExecPage(st, va)
		if err != nil {
			return nil, err
		}
		if data != nil {
			dp := ip.Cache.page(page, def32, gen)
			return ip.decodeFromPage(dp, data, code, int(va&(codePageSize-1)), def32)
		}
	}
	return ip.decodeSlow(def32)
}

// decodeSlow decodes the instruction at CS:EIP by per-byte fetches
// through Env.MemRead, into the interpreter's own Inst.
func (ip *Interp) decodeSlow(def32 bool) (*Inst, error) {
	ip.fetch = execFetcher{ip: ip, pos: ip.St.EIP}
	if err := decodeInto(&ip.fetch, def32, &ip.inst); err != nil {
		return nil, err
	}
	return &ip.inst, nil
}

// vmexit stores e as the interpreter's exit record and returns it; the
// record stays valid until the interpreter steps again.
func (ip *Interp) vmexit(e VMExit) *VMExit {
	ip.exit = e
	return &ip.exit
}

// decodeFromPage returns the cached decode at page offset off, filling
// the cache on a miss. An instruction that spills past the page's end
// re-fetches through the environment, so the next page's translation
// happens (and faults and charges) exactly as on the slow path; the
// first page's bytes re-read for free — their translation was just
// inserted into the TLB. In-page decode failures (the 15-byte limit)
// surface as-is: the slow path would read the same bytes and fail
// identically.
func (ip *Interp) decodeFromPage(dp *decodedPage, data []byte, code CodeMap, off int, def32 bool) (*Inst, error) {
	if inst := dp.insts[off]; inst != nil {
		return inst, nil
	}
	inst, err := Decode(&pageFetcher{data: data, off: off}, def32)
	if err == nil {
		cacheInst(dp, code, off, inst)
		return inst, nil
	}
	if _, spill := err.(errPageSpill); !spill {
		return nil, err
	}
	return ip.decodeSlow(def32)
}

// Step fetches, decodes and executes one instruction (or a bounded burst
// of REP iterations). It returns nil on normal progress, or *VMExit when
// control must leave guest mode. Guest exceptions are delivered to the
// guest internally; only triple faults surface as exits.
func (ip *Interp) Step() error {
	st := ip.St
	if st.Halted {
		return nil // waiting for an interrupt; the run loop advances time
	}
	prevShadow := st.IntShadow
	st.IntShadow = false

	inst, err := ip.fetchDecode(st)
	return ip.stepDecoded(inst, err, prevShadow)
}

// stepDecoded is the back half of Step: execute an already-fetched
// instruction (or route the fetch error err), with the interrupt shadow
// already consumed and prevShadow holding its pre-fetch value for the
// rollback snapshot. StepBlock shares it so every mid-flight fallback
// from the fused path behaves byte-for-byte like the sequential
// interpreter without re-translating the fetch address.
func (ip *Interp) stepDecoded(inst *Inst, err error, prevShadow bool) error {
	st := ip.St
	if err == nil && inst.fuse == fuseAlways {
		// The instruction provably cannot fault, exit or error, so the
		// rollback snapshot below is dead weight; skip the copy.
		st.EIP += uint32(inst.Len)
		if err := ip.exec(inst); err != nil {
			// invariant: instNoFault admitted an instruction whose exec
			// failed — a classification bug in the simulator itself,
			// never reachable from guest input.
			panic(fmt.Sprintf("x86: no-fault instruction %v failed: %v", inst, err))
		}
		ip.InstRet++
		return nil
	}

	snapshot := *st
	snapshot.IntShadow = prevShadow
	if err == nil {
		st.EIP += uint32(inst.Len)
		err = ip.exec(inst)
	}
	if err == nil {
		ip.InstRet++
		return nil
	}

	switch e := err.(type) {
	case *VMExit:
		*st = snapshot
		if inst != nil {
			e.InstLen = inst.Len
		}
		return e
	case *Exception:
		*st = snapshot
		ip.InstRet++
		return ip.deliverException(e)
	case InstTooLongError:
		*st = snapshot
		return ip.deliverException(GPFault(0))
	default:
		return fmt.Errorf("x86: interpreter error at eip=%#x: %w", snapshot.EIP, err)
	}
}

// deliverException injects a fault into the guest, escalating to double
// and triple fault as hardware does.
func (ip *Interp) deliverException(e *Exception) error {
	if e.Vector == VecPF {
		ip.St.CR2 = e.CR2
	}
	err := ip.deliverEvent(e.Vector, e.Code, e.HasCode, false)
	if err == nil {
		return nil
	}
	if _, ok := err.(*Exception); ok {
		// Fault during fault delivery: double fault.
		if e.Vector == VecDF {
			return &VMExit{Reason: ExitTripleFault}
		}
		return ip.deliverException(&Exception{Vector: VecDF, Code: 0, HasCode: true})
	}
	return err
}

// Interrupt delivers an external or virtual interrupt vector to the
// guest. The caller must have checked interruptibility (IF, shadow).
func (ip *Interp) Interrupt(vector uint8) error {
	ip.St.Halted = false
	err := ip.deliverEvent(int(vector), 0, false, false)
	if err == nil {
		return nil
	}
	if _, ok := err.(*Exception); ok {
		return ip.deliverException(&Exception{Vector: VecDF, Code: 0, HasCode: true})
	}
	return err
}

// Interruptible reports whether an interrupt can be delivered now.
func (ip *Interp) Interruptible() bool {
	return ip.St.IF() && !ip.St.IntShadow
}

// deliverEvent pushes an interrupt/exception frame and vectors through
// the IVT (real mode) or IDT (protected mode).
func (ip *Interp) deliverEvent(vec int, code uint32, hasCode bool, swInt bool) error {
	st := ip.St
	if !st.ProtectedMode() {
		// Real mode: IVT at linear 0, 4 bytes per vector.
		off, err := ip.readLinear(uint32(vec)*4, 2)
		if err != nil {
			return err
		}
		sel, err := ip.readLinear(uint32(vec)*4+2, 2)
		if err != nil {
			return err
		}
		if err := ip.push(st.EFLAGS&0xffff, 2); err != nil {
			return err
		}
		if err := ip.push(uint32(st.Seg[CS].Sel), 2); err != nil {
			return err
		}
		if err := ip.push(st.EIP&0xffff, 2); err != nil {
			return err
		}
		st.SetFlag(FlagIF, false)
		st.SetFlag(FlagTF, false)
		st.Seg[CS] = Segment{Sel: uint16(sel), Base: sel << 4, Limit: 0xffff}
		st.EIP = off
		return nil
	}

	// Protected mode: read the 8-byte gate descriptor.
	if uint32(vec)*8+7 > uint32(st.IDTR.Limit) {
		return GPFault(uint32(vec)*8 | 2)
	}
	lo, err := ip.readLinear(st.IDTR.Base+uint32(vec)*8, 4)
	if err != nil {
		return err
	}
	hi, err := ip.readLinear(st.IDTR.Base+uint32(vec)*8+4, 4)
	if err != nil {
		return err
	}
	if hi&(1<<15) == 0 { // present bit
		return GPFault(uint32(vec)*8 | 2)
	}
	gateType := hi >> 8 & 0xf
	if gateType != 0xe && gateType != 0xf && gateType != 0x6 && gateType != 0x7 {
		return GPFault(uint32(vec)*8 | 2)
	}
	sel := uint16(lo >> 16)
	offset := lo&0xffff | hi&0xffff0000
	if gateType == 0x6 || gateType == 0x7 { // 16-bit gates
		offset &= 0xffff
	}

	if err := ip.push(st.EFLAGS, 4); err != nil {
		return err
	}
	if err := ip.push(uint32(st.Seg[CS].Sel), 4); err != nil {
		return err
	}
	if err := ip.push(st.EIP, 4); err != nil {
		return err
	}
	if hasCode {
		if err := ip.push(code, 4); err != nil {
			return err
		}
	}
	if err := ip.loadSeg(CS, sel); err != nil {
		return err
	}
	if gateType == 0xe || gateType == 0x6 { // interrupt gate masks IF
		st.SetFlag(FlagIF, false)
	}
	st.SetFlag(FlagTF, false)
	st.EIP = offset
	return nil
}

// loadSeg loads a segment register. In real mode the base is sel<<4; in
// protected mode the descriptor is read from the GDT.
func (ip *Interp) loadSeg(seg int, sel uint16) error {
	st := ip.St
	if !st.ProtectedMode() {
		st.Seg[seg] = Segment{Sel: sel, Base: uint32(sel) << 4, Limit: 0xffff, Def32: st.Seg[seg].Def32}
		return nil
	}
	if sel&^0x3 == 0 {
		// Null selector: allowed for data segments, faults on use; we
		// model it as a zero segment.
		if seg == CS || seg == SS {
			return GPFault(0)
		}
		st.Seg[seg] = Segment{}
		return nil
	}
	if sel&0x4 != 0 {
		return GPFault(uint32(sel)) // no LDT support
	}
	index := uint32(sel &^ 0x7)
	if index+7 > uint32(st.GDTR.Limit) {
		return GPFault(uint32(sel))
	}
	lo, err := ip.readLinear(st.GDTR.Base+index, 4)
	if err != nil {
		return err
	}
	hi, err := ip.readLinear(st.GDTR.Base+index+4, 4)
	if err != nil {
		return err
	}
	if hi&(1<<15) == 0 { // present
		return GPFault(uint32(sel))
	}
	base := lo>>16 | hi<<16&0xff0000 | hi&0xff000000
	limit := lo&0xffff | hi&0xf0000
	if hi&(1<<23) != 0 { // granularity: 4K units
		limit = limit<<12 | 0xfff
	}
	st.Seg[seg] = Segment{Sel: sel, Base: base, Limit: limit, Def32: hi&(1<<22) != 0}
	if seg == SS {
		st.IntShadow = true
	}
	return nil
}

// readLinear reads from a linear (post-segmentation) address. An
// access that crosses a 4 KiB page is split into byte reads, highest
// byte first, so each byte translates (and may fault) on its own page
// and no Env ever sees a crossing access.
func (ip *Interp) readLinear(la uint32, size int) (uint32, error) {
	if la&(pageSize-1)+uint32(size) <= pageSize {
		return ip.Env.MemRead(ip.St, la, size, AccessRead)
	}
	var v uint32
	for i := size - 1; i >= 0; i-- {
		b, err := ip.Env.MemRead(ip.St, la+uint32(i), 1, AccessRead)
		if err != nil {
			return 0, err
		}
		v = v<<8 | b&0xff
	}
	return v, nil
}

// writeLinear writes to a linear address. A page-crossing write is
// split like readLinear's reads, lowest byte first.
func (ip *Interp) writeLinear(la uint32, size int, v uint32) error {
	if la&(pageSize-1)+uint32(size) <= pageSize {
		return ip.Env.MemWrite(ip.St, la, size, v)
	}
	for i := 0; i < size; i++ {
		if err := ip.Env.MemWrite(ip.St, la+uint32(i), 1, v>>(8*uint(i))); err != nil {
			return err
		}
	}
	return nil
}

// linear applies segmentation.
func (ip *Interp) linear(seg int, off uint32) uint32 {
	return ip.St.Seg[seg].Base + off
}

// memRead reads seg:off.
func (ip *Interp) memRead(seg int, off uint32, size int) (uint32, error) {
	return ip.readLinear(ip.linear(seg, off), size)
}

// memWrite writes seg:off.
func (ip *Interp) memWrite(seg int, off uint32, size int, v uint32) error {
	return ip.writeLinear(ip.linear(seg, off), size, v)
}

// stackWidth returns the stack pointer width in bytes (SS.D bit).
func (ip *Interp) stackWidth() int {
	if ip.St.Seg[SS].Def32 {
		return 4
	}
	return 2
}

// push writes val (of size bytes) to the stack.
func (ip *Interp) push(val uint32, size int) error {
	st := ip.St
	sw := ip.stackWidth()
	sp := st.GPR[ESP]
	var newSP uint32
	if sw == 4 {
		newSP = sp - uint32(size)
	} else {
		newSP = sp&^0xffff | (sp-uint32(size))&0xffff
	}
	if err := ip.memWrite(SS, newSP&spMask(sw), size, val); err != nil {
		return err
	}
	st.GPR[ESP] = newSP
	return nil
}

// pop reads size bytes off the stack.
func (ip *Interp) pop(size int) (uint32, error) {
	st := ip.St
	sw := ip.stackWidth()
	sp := st.GPR[ESP]
	v, err := ip.memRead(SS, sp&spMask(sw), size)
	if err != nil {
		return 0, err
	}
	if sw == 4 {
		st.GPR[ESP] = sp + uint32(size)
	} else {
		st.GPR[ESP] = sp&^0xffff | (sp+uint32(size))&0xffff
	}
	return v, nil
}

func spMask(sw int) uint32 {
	if sw == 4 {
		return 0xffffffff
	}
	return 0xffff
}

// readRM reads the ModRM r/m operand.
func (ip *Interp) readRM(inst *Inst, size int) (uint32, error) {
	if inst.Mod == 3 {
		return ip.St.Reg(inst.RM, size), nil
	}
	off, seg := inst.effectiveAddr(ip.St)
	return ip.memRead(seg, off, size)
}

// writeRM writes the ModRM r/m operand.
func (ip *Interp) writeRM(inst *Inst, size int, v uint32) error {
	if inst.Mod == 3 {
		ip.St.SetReg(inst.RM, size, v)
		return nil
	}
	off, seg := inst.effectiveAddr(ip.St)
	return ip.memWrite(seg, off, size, v)
}

// rmAddr returns the linear address of a memory r/m operand.
func (ip *Interp) rmAddr(inst *Inst) uint32 {
	off, seg := inst.effectiveAddr(ip.St)
	return ip.linear(seg, off)
}

func (ip *Interp) tsc() uint64 {
	if ip.TSC != nil {
		return ip.TSC()
	}
	return ip.InstRet
}

// CPUIDValues returns the synthetic CPUID leaves of the simulated
// processor. The VMM also calls this to emulate intercepted CPUID.
func CPUIDValues(leaf, sub uint32) (a, b, c, d uint32) {
	switch leaf {
	case 0:
		// "NovaSimCPU--" in the vendor string registers.
		return 1, 0x61766f4e, 0x2d2d5550, 0x436d6953
	case 1:
		// family 6 model 26 (Bloomfield-ish); features: FPU TSC MSR PSE
		// PGE CMOV.
		return 0x000106a0, 0, 0, 1<<0 | 1<<3 | 1<<4 | 1<<5 | 1<<13 | 1<<15
	}
	return 0, 0, 0, 0
}
