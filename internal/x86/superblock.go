package x86

import "fmt"

// This file is host-side performance machinery only, like the decoded-
// instruction cache it builds on. A superblock is a straight-line run of
// already-decoded, provably-no-fault instructions within one physical
// code page, executed as a single fused loop: one fetch translation, no
// per-step rollback snapshots, and one batched cycle charge by the
// binding layer. Nothing here may influence simulated behaviour — the
// A/B identity matrix (superblocks on/off across exec modes, including
// profiler-attached runs) enforces bit-identical cycles, traces, RAM
// and final vCPU state.
//
// Why fusing is invisible to the simulation:
//
//   - Every fused instruction satisfies InstFusible: register-only or
//     immediate forms that cannot fault, exit, touch memory or devices,
//     or add ExtraCycles. Mid-block there is nothing to observe and
//     nothing that can diverge.
//   - All instructions lie within one physical — and therefore one
//     virtual — 4K page. The sequential interpreter's per-instruction
//     fetch translations would all hit the TLB entry the block's single
//     fetch used: hits are free (no charge, no trace), so skipping them
//     changes only hw.TLBStats.Hits, the sanctioned host-side counter
//     (DESIGN.md §3a).
//   - The binding layer caps the block (StepBlock's max) so virtual
//     time cannot run past the next platform event, the run-loop
//     deadline or the profiler's next sample point: no event,
//     interrupt-window, preemption or sampling check that the
//     sequential loop would have performed mid-block could have fired.
//     A block's single fetch translation may miss the TLB and charge a
//     walk or fill before the first instruction; the instructions after
//     it start that much later, so the cap counts the charge (blockFit).
//     When anything is already pending, the binding layer forces
//     max=1 and the existing single-step path runs instead.
//   - A relative branch may only terminate a block, so the cached
//     instruction sequence always matches the addresses execution
//     actually visits; a taken branch simply ends the block where the
//     sequential loop would re-fetch.
//
// Invalidation rides the decode cache's per-page write generations.
// Every instruction of a block is in the decode cache, so every byte of
// the block's span is marked in the page's code map: a store into the
// span (guest SMC, VMM/BIOS writes, DMA) moves the generation, and the
// cache drops the page's blocks with its decodes. The cache key's def32
// bit covers CS default-size changes; paging-mode or mapping changes
// are caught by the per-fetch translation that precedes every block
// run.

// Superblock is a cached straight-line run of fusible instructions
// starting at one page offset.
type Superblock struct {
	insts []*Inst
}

// SuperblockStats counts superblock activity. Host-side only: the
// binding layers surface these through the stat registry, and nothing
// simulated reads them.
type SuperblockStats struct {
	// Built counts superblocks constructed (at least two instructions).
	Built uint64
	// Hits counts fused executions of a cached superblock.
	Hits uint64
	// Fused counts instructions retired inside fused executions.
	Fused uint64
	// Invalidated counts cached superblocks dropped: with their page,
	// when a store to cached code moved the page's write generation, or
	// on cache overflow.
	Invalidated uint64
	// CutPending counts single-steps forced by the binding layer
	// because an interrupt, recall or injection was already pending.
	CutPending uint64
	// CutClamp counts fused executions truncated below the cached
	// block's length by the binding layer's window: the next platform
	// event, the run deadline or the profiler's next sample point.
	CutClamp uint64
	// CutShort counts entry points with no fusible run of length >= 2.
	CutShort uint64
	// CutSlow counts fallbacks where the fetch had no fast path
	// (MMIO-backed code) or the fetch translation faulted.
	CutSlow uint64
}

// instBranch reports whether inst is one of the relative control
// transfers admitted by instNoFault (Jcc, LOOPcc, JCXZ, JMP rel). Such
// an instruction may terminate a superblock but never sit inside one:
// execution after a taken branch would leave the cached straight-line
// sequence.
func instBranch(inst *Inst) bool {
	if inst.TwoByte {
		return inst.Op >= 0x80 && inst.Op <= 0x8f // Jcc relZ
	}
	switch {
	case inst.Op >= 0x70 && inst.Op <= 0x7f: // Jcc rel8
		return true
	case inst.Op >= 0xe0 && inst.Op <= 0xe3: // LOOPcc, JCXZ
		return true
	}
	return inst.Op == 0xe9 || inst.Op == 0xeb // JMP rel
}

// InstFusible reports whether inst may be part of a superblock: provably
// no-fault (see instNoFault) and free of ExtraCycles side charges, so a
// fused run's cost is exactly its instruction count times the base
// instruction cost. MUL and DIV group-3 forms charge extra latency and
// are excluded; everything else instNoFault admits retires for the flat
// base cost. Exported for nova-obs, whose profile report annotates hot
// addresses with their fusibility.
func InstFusible(inst *Inst) bool {
	if !instNoFault(inst) {
		return false
	}
	if !inst.TwoByte && (inst.Op == 0xf6 || inst.Op == 0xf7) && inst.RegOp >= 4 {
		return false
	}
	return true
}

// buildSuperblock chains decoded instructions forward from off,
// stopping at the first non-fusible or page-spilling instruction; a
// relative branch is included only as the final instruction. Runs
// shorter than two instructions yield the cache's noBlock sentinel, so
// StepBlock stops re-probing those entry points.
func (ip *Interp) buildSuperblock(dp *decodedPage, data []byte, code CodeMap, off int, def32 bool) *Superblock {
	var insts []*Inst
	pos := off
	for pos < codePageSize {
		inst := dp.insts[pos]
		if inst == nil {
			in, err := Decode(&pageFetcher{data: data, off: pos}, def32)
			if err != nil {
				break // page spill or bad encoding: end the block before it
			}
			cacheInst(dp, code, pos, in)
			inst = in
		}
		if !InstFusible(inst) {
			break
		}
		insts = append(insts, inst)
		pos += inst.Len
		if instBranch(inst) {
			break
		}
	}
	if len(insts) < 2 {
		return ip.Cache.noBlock
	}
	return &Superblock{insts: insts}
}

// blockFit is the number of a block's instructions that start within
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

// StepBlock fetches the superblock at CS:EIP and executes, as one fused
// run, those of its instructions that start within window cycles of the
// step, or falls back to the single-step path when no block applies.
// The fetch translation's charge comes first, then each instruction
// retires for instCost, so instruction i starts charged+i·instCost
// cycles in; the first always runs (see blockFit). The caller charges
// the retired-instruction delta exactly as it does after Step — a fused
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
	if ip.Cache == nil || ip.pager == nil || window <= instCost {
		return ip.Step()
	}
	prevShadow := st.IntShadow
	st.IntShadow = false
	def32 := st.Seg[CS].Def32
	va := st.Seg[CS].Base + st.EIP
	data, code, page, gen, charged, err := ip.pager.ExecPage(st, va)
	if err != nil {
		ip.Cache.SB.CutSlow++
		return ip.stepDecoded(nil, err, prevShadow)
	}
	if data == nil {
		// MMIO-backed fetch: decode per byte through the environment,
		// exactly like Step's slow path (the translation just performed
		// is hit in the TLB, so the re-reads are free).
		ip.Cache.SB.CutSlow++
		inst, derr := ip.decodeSlow(def32)
		return ip.stepDecoded(inst, derr, prevShadow)
	}
	off := int(va & (codePageSize - 1))
	dp := ip.Cache.page(page, def32, gen)
	sb := dp.blocks[off]
	if sb == nil {
		sb = ip.buildSuperblock(dp, data, code, off, def32)
		dp.blocks[off] = sb
		if sb != ip.Cache.noBlock {
			ip.Cache.SB.Built++
			dp.nblocks++
			ip.Cache.liveBlocks++
		}
	}
	if sb == ip.Cache.noBlock {
		ip.Cache.SB.CutShort++
		inst, derr := ip.decodeFromPage(dp, data, code, off, def32)
		return ip.stepDecoded(inst, derr, prevShadow)
	}
	n := len(sb.insts)
	if fit := blockFit(window, charged, instCost); uint64(n) > fit {
		n = int(fit)
		ip.Cache.SB.CutClamp++
	}
	ip.Cache.SB.Hits++
	ip.Cache.SB.Fused += uint64(n)
	for _, inst := range sb.insts[:n] {
		// Mirror the sequential loop exactly: each step consumes the
		// interrupt shadow (STI mid-block may set it for the next
		// step), advances EIP past the instruction, then executes.
		st.IntShadow = false
		st.EIP += uint32(inst.Len)
		if err := ip.exec(inst); err != nil {
			// invariant: InstFusible admitted an instruction whose exec
			// failed — a classification bug in the simulator itself,
			// never reachable from guest input.
			panic(fmt.Sprintf("x86: fused no-fault instruction %v failed: %v", inst, err))
		}
	}
	ip.InstRet += uint64(n)
	return nil
}
