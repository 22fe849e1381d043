package x86

import "fmt"

// This file is host-side performance machinery only, like the decoded-
// instruction cache it runs on. A fused run executes cached decodes one
// after another on one code page, with one fetch translation, no
// per-step rollback snapshots and one batched cycle charge by the
// binding layer, so the run loop's per-step work is skipped between
// them. Nothing here may influence simulated behaviour: the A/B
// identity matrix (decode cache on and off across exec modes, including
// profiler-attached runs) enforces bit-identical cycles, traces, RAM
// and final vCPU state.
//
// Why fusing is invisible to the simulation:
//
//   - Every fused instruction is one that cannot fault, exit, charge
//     cycles or record an event where it runs. decodeInto gives each
//     instruction a fuse class (nofault.go). A fuseAlways instruction
//     cannot fault in any state. A load, store or read-modify-write
//     whose only fault source is its r/m access joins a run only when
//     the environment reports that access free (ExecPager.FreeAccess):
//     inside one page, a memo hit that costs nothing, records nothing
//     and changes nothing but the TLB's hit count, and for a store, no
//     overlap with marked code. Register-form DIV joins only when the
//     divisor is above the dividend's high half, so it cannot raise
//     #DE. Mid-run there is nothing to observe and nothing that can
//     diverge.
//   - A run starts only with a fuseAlways instruction. A conditional
//     first instruction is single-stepped: it is most often the one
//     whose check just ended the previous run (a load that misses the
//     vTLB, say), and checking it again would only repeat that work.
//   - All instructions lie on the fetched 4 KiB page: after each one the
//     run re-reads CS.Base+EIP and stops when it leaves that page, so a
//     taken relative branch that stays on the page is followed like a
//     fall-through. The sequential interpreter's per-instruction fetch
//     translations would all hit the TLB entry the run's single fetch
//     used, since no fused access fills or evicts an entry: hits are
//     free (no charge, no trace), so skipping them changes only
//     hw.TLBStats.Hits, the sanctioned host-side counter (DESIGN.md
//     §3a).
//   - The binding layer caps the run (StepBlock's window) so virtual
//     time cannot run past the next platform event, the run-loop
//     deadline or the profiler's next sample point: no event,
//     interrupt-window, preemption or sampling check that the
//     sequential loop would have performed mid-run could have fired.
//     The run's single fetch translation may miss the TLB and charge a
//     walk or fill before the first instruction, and each instruction
//     retires for the base cost plus its ExtraCycles (MUL, DIV), so the
//     run keeps the running sum of these as the start time of its next
//     instruction and stops when that reaches the window. When anything
//     is already pending, the binding layer forces a single step.
//
// Invalidation rides the decode cache's per-page write generations:
// every instruction a run executes is a cached decode, so its bytes are
// marked in the page's code map, and a store to them (guest SMC,
// VMM/BIOS writes, DMA) moves the generation and drops the page's
// decodes. A fused store never overlaps marked code, so no page's
// generation moves during a run and the run's decodes stay valid; a
// store that would move one ends the run and is stepped. The cache
// key's def32 bit covers CS default-size changes; paging-mode or
// mapping changes are caught by the per-run fetch translation.

// InstFusible reports whether inst can run inside a fused run at all,
// and whether it always can. A conditionally fusible instruction (a
// memory operand, register-form DIV) joins a run only where its access
// is free or it cannot raise #DE, and never starts one. decodeInto
// stores the class on each Inst; the function is exported for nova-obs,
// whose profile report annotates hot addresses with their fusibility.
func InstFusible(inst *Inst) (fusible, always bool) {
	return inst.fuse != fuseNever, inst.fuse == fuseAlways
}

// joins reports whether inst can run inside the current fused run in
// the current state (see fuseClass).
func (ip *Interp) joins(inst *Inst) bool {
	st := ip.St
	switch inst.fuse {
	case fuseAlways:
		return true
	case fuseLoad, fuseStore, fuseRMW:
		off, seg := inst.effectiveAddr(st)
		la, n := st.Seg[seg].Base+off, int(inst.accessSize)
		return (inst.fuse == fuseStore || ip.pager.FreeAccess(st, la, n, false)) &&
			(inst.fuse == fuseLoad || ip.pager.FreeAccess(st, la, n, true))
	case fuseDiv:
		// Unsigned division overflows exactly when the dividend's high
		// half is at least the divisor, a zero divisor included.
		if inst.Op == 0xf6 {
			return st.Reg(EAX, 2)>>8 < st.Reg(inst.RM, 1)
		}
		return st.Reg(EDX, inst.OpSize) < st.Reg(inst.RM, inst.OpSize)
	default: // fuseNever
		return false
	}
}

// StepBlock executes a fused run from CS:EIP: after one fetch
// translation it runs cached decodes in order, following CS:EIP, and
// stops before an instruction that cannot join the run (see joins),
// when the next address leaves the fetched page, before an instruction
// that does not decode within the page, or once the next instruction
// would start window cycles or more into the step. The fetch
// translation's charge comes first, then each instruction retires for
// instCost plus the ExtraCycles it adds; the first always runs, as in a
// single step, since the caller's checks before the step were its. A
// first instruction that is not fuseAlways is single-stepped instead,
// and so is one that spills past the page end: its decode translated
// the next page through the environment, which charged the clock
// outside charged. The caller charges the retired-instruction and
// ExtraCycles deltas exactly as it does after Step, so the one batched
// charge equals the n sequential charges it replaces. The caller must
// pass a window that ends no later than the next platform event, the
// run deadline and the next profiler sample point, and must call Step
// instead when an interrupt, recall or injection is pending.
func (ip *Interp) StepBlock(window, instCost uint64) error {
	st := ip.St
	if st.Halted {
		return nil // waiting for an interrupt; the run loop advances time
	}
	if ip.Cache == nil || ip.pager == nil {
		return ip.Step()
	}
	prevShadow := st.IntShadow
	st.IntShadow = false
	def32 := st.Seg[CS].Def32
	va := st.Seg[CS].Base + st.EIP
	data, code, page, gen, charged, err := ip.pager.ExecPage(st, va)
	if err != nil {
		return ip.stepDecoded(nil, err, prevShadow)
	}
	if data == nil {
		// MMIO-backed fetch: decode per byte through the environment,
		// exactly like Step's slow path (the translation just performed
		// is hit in the TLB, so the re-reads are free).
		inst, derr := ip.decodeSlow(def32)
		return ip.stepDecoded(inst, derr, prevShadow)
	}
	dp := ip.Cache.page(page, def32, gen)
	off := int(va & (codePageSize - 1))
	inst, err := ip.decodeFromPage(dp, data, code, off, def32)
	if err != nil || inst.fuse != fuseAlways || off+inst.Len > codePageSize {
		return ip.stepDecoded(inst, err, prevShadow)
	}
	fetched := va &^ (codePageSize - 1)
	extra := ip.ExtraCycles
	var n uint64
	for {
		// Mirror the sequential loop exactly: advance EIP past the
		// instruction, then execute it.
		st.EIP += uint32(inst.Len)
		if err := ip.exec(inst); err != nil {
			// invariant: the fuse class and joins admitted an
			// instruction whose exec failed — a classification bug in
			// the simulator itself, never reachable from guest input.
			panic(fmt.Sprintf("x86: fused instruction %v failed: %v", inst, err))
		}
		n++
		va = st.Seg[CS].Base + st.EIP
		// The next instruction starts once the fetch and every
		// instruction so far have retired.
		if charged+n*instCost+ip.ExtraCycles-extra >= window || va&^(codePageSize-1) != fetched {
			break
		}
		off = int(va & (codePageSize - 1))
		if inst = dp.insts[off]; inst == nil {
			if inst, err = Decode(&pageFetcher{data: data, off: off}, def32); err != nil {
				break // spill or over-long: the next step takes the slow path
			}
			cacheInst(dp, code, off, inst)
		}
		if inst.fuse != fuseAlways && !ip.joins(inst) {
			break
		}
		st.IntShadow = false // each step consumes it; STI may have set it
	}
	ip.InstRet += n
	if n > 1 {
		// A run of one skips nothing Step does, so it is not counted.
		ip.Cache.SB.Fused += n
	}
	return nil
}
