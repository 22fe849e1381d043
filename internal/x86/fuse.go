package x86

import "fmt"

// This file is host-side performance machinery only, like the decoded-
// instruction cache it runs on. A fused run executes cached decodes of
// provably-no-fault instructions one after another on one code page,
// with one fetch translation, no per-step rollback snapshots and one
// batched cycle charge by the binding layer, so the run loop's per-step
// work is skipped between them. Nothing here may influence simulated
// behaviour: the A/B identity matrix (decode cache on and off across
// exec modes, including profiler-attached runs) enforces bit-identical
// cycles, traces, RAM and final vCPU state.
//
// Why fusing is invisible to the simulation:
//
//   - Every fused instruction satisfies InstFusible: register-only or
//     immediate forms that cannot fault, exit, touch memory or devices,
//     or add ExtraCycles. Mid-run there is nothing to observe and
//     nothing that can diverge.
//   - All instructions lie on the fetched 4 KiB page: after each one the
//     run re-reads CS.Base+EIP and stops when it leaves that page, so a
//     taken relative branch that stays on the page is followed like a
//     fall-through. The sequential interpreter's per-instruction fetch
//     translations would all hit the TLB entry the run's single fetch
//     used: hits are free (no charge, no trace), so skipping them
//     changes only hw.TLBStats.Hits, the sanctioned host-side counter
//     (DESIGN.md §3a).
//   - The binding layer caps the run (StepBlock's window) so virtual
//     time cannot run past the next platform event, the run-loop
//     deadline or the profiler's next sample point: no event,
//     interrupt-window, preemption or sampling check that the
//     sequential loop would have performed mid-run could have fired.
//     The run's single fetch translation may miss the TLB and charge a
//     walk or fill before the first instruction; the instructions after
//     it start that much later, so the cap counts the charge (blockFit).
//     When anything is already pending, the binding layer forces a
//     single step.
//
// Invalidation rides the decode cache's per-page write generations:
// every instruction a run executes is a cached decode, so its bytes are
// marked in the page's code map, and a store to them (guest SMC,
// VMM/BIOS writes, DMA) moves the generation and drops the page's
// decodes. A fused instruction cannot store, so the page's generation
// holds for the whole run. The cache key's def32 bit covers CS
// default-size changes; paging-mode or mapping changes are caught by
// the per-run fetch translation.

// InstFusible reports whether inst may run fused: provably no-fault
// (see instNoFault) and free of ExtraCycles side charges, so a fused
// run's cost is exactly its instruction count times the base
// instruction cost. MUL and DIV group-3 forms charge extra latency and
// are excluded; everything else instNoFault admits retires for the flat
// base cost. decodeInto stores the result on each Inst; the function is
// exported for nova-obs, whose profile report annotates hot addresses
// with their fusibility.
func InstFusible(inst *Inst) bool {
	return instNoFault(inst) && !extraCycles(inst)
}

// extraCycles reports whether inst adds ExtraCycles when it retires:
// the MUL and DIV group-3 forms, which charge their latency.
func extraCycles(inst *Inst) bool {
	return !inst.TwoByte && (inst.Op == 0xf6 || inst.Op == 0xf7) && inst.RegOp >= 4
}

// blockFit is the number of a run's instructions that start within
// window cycles when the fetch charged charged cycles and each
// instruction retires for instCost: instruction i starts at
// charged+i·instCost. The first instruction always counts, as in a
// single step: the caller's checks before the step were its.
func blockFit(window, charged, instCost uint64) uint64 {
	if window <= charged {
		return 1
	}
	if instCost == 1 {
		return window - charged
	}
	return (window - charged + instCost - 1) / instCost
}

// StepBlock executes a fused run from CS:EIP: after one fetch
// translation it runs cached fusible decodes in order, following
// CS:EIP, and stops before a non-fusible instruction, when the next
// address leaves the fetched page, before an instruction that does not
// decode within the page, or after the instructions that start within
// window cycles of the step. The fetch translation's charge comes
// first, then each instruction retires for instCost, so instruction i
// starts charged+i·instCost cycles in; the first always runs (see
// blockFit). A first instruction that cannot run fused is
// single-stepped instead, and so is one that spills past the page end:
// its decode translated the next page through the environment, which
// charged the clock outside charged. The caller charges the
// retired-instruction delta exactly as it does after Step — a fused
// run retires n instructions with zero ExtraCycles, so the one batched
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
	if err != nil || !inst.fusible || off+inst.Len > codePageSize {
		return ip.stepDecoded(inst, err, prevShadow)
	}
	fetched := va &^ (codePageSize - 1)
	fit := blockFit(window, charged, instCost)
	var n uint64
	for {
		// Mirror the sequential loop exactly: advance EIP past the
		// instruction, then execute it.
		st.EIP += uint32(inst.Len)
		if err := ip.exec(inst); err != nil {
			// invariant: InstFusible admitted an instruction whose exec
			// failed — a classification bug in the simulator itself,
			// never reachable from guest input.
			panic(fmt.Sprintf("x86: fused no-fault instruction %v failed: %v", inst, err))
		}
		n++
		va = st.Seg[CS].Base + st.EIP
		if n == fit || va&^(codePageSize-1) != fetched {
			break
		}
		off = int(va & (codePageSize - 1))
		if inst = dp.insts[off]; inst == nil {
			if inst, err = Decode(&pageFetcher{data: data, off: off}, def32); err != nil {
				break // spill or over-long: the next step takes the slow path
			}
			cacheInst(dp, code, off, inst)
		}
		if !inst.fusible {
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
