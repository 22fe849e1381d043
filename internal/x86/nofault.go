package x86

// fuseClass says when an instruction may run inside a fused run
// (fuse.go). decodeInto classifies each instruction once (classify) and
// stores the class and its memory access's size on the Inst; the
// interpreter reads them instead of classifying again.
type fuseClass uint8

const (
	// fuseNever ends a run: it may fault, exit, charge cycles or record
	// an event whatever the state.
	fuseNever fuseClass = iota
	// fuseAlways provably cannot fault (instNoFault). Step skips its
	// rollback snapshot, and a fused run may start with it.
	fuseAlways
	// fuseLoad, fuseStore and fuseRMW fault only through their one r/m
	// memory access, a read, a write, or a read then a write of the
	// same bytes. They join a run only while that access is a free hit
	// (ExecPager.FreeAccess), both halves for fuseRMW.
	fuseLoad
	fuseStore
	fuseRMW
	// fuseDiv is register-form DIV. It joins a run only while it cannot
	// raise #DE: the divisor is above the dividend's high half.
	fuseDiv
)

// classify stores inst's fuse class and, for the memory classes, the
// size of its access.
func classify(inst *Inst) {
	switch {
	case instNoFault(inst):
		inst.fuse = fuseAlways
	case !inst.TwoByte && (inst.Op == 0xf6 || inst.Op == 0xf7) && inst.Mod == 3 && inst.RegOp == 6:
		inst.fuse = fuseDiv
	case inst.Mod != 3:
		inst.fuse, inst.accessSize = memFuseClass(inst)
	}
}

// instNoFault reports whether inst provably cannot make exec return a
// non-nil error: no memory operand (so no translation fault or exit), no
// #UD/#DE-capable form, no intercepted or sensitive operation. For such
// instructions Step skips the CPUState rollback snapshot — pure host-side
// hot-loop slimming with no effect on simulated behaviour, because the
// snapshot of a successfully retired instruction is never read.
//
// The classification is deliberately conservative: anything not listed
// keeps the snapshot. Listing an instruction that can fail is a
// simulator bug (Step panics), never a guest-triggerable condition.
//
// These are the instructions a fused run may start with (fuseAlways);
// MUL and IMUL among them add ExtraCycles, which the run counts against
// its window. Growing this list therefore also grows fused coverage —
// and misclassification is caught by the same panic in both the
// single-step and fused paths.
func instNoFault(inst *Inst) bool {
	if inst.TwoByte {
		return twoByteNoFault(inst)
	}
	op := inst.Op
	switch {
	case op < 0x40:
		// ALU block rows: forms 0-3 are r/m variants (register-only is
		// safe), 4/5 are AL/eAX,imm; 6/7 are segment pushes and BCD ops.
		switch op & 7 {
		case 0, 1, 2, 3:
			return inst.Mod == 3
		case 4, 5:
			return true
		}
		return false
	case op < 0x50: // INC/DEC r
		return true
	case op >= 0x70 && op <= 0x7f: // Jcc rel8
		return true
	case op >= 0x91 && op <= 0x97: // XCHG eAX, r
		return true
	case op >= 0xb0 && op <= 0xbf: // MOV r, imm
		return true
	}
	switch op {
	case 0x69, 0x6b: // IMUL r, r/m, imm
		return inst.Mod == 3
	case 0x80, 0x81, 0x82, 0x83: // group 1: ALU r/m, imm; all 8 /r forms valid
		return inst.Mod == 3
	case 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b: // TEST/XCHG/MOV r/m forms
		return inst.Mod == 3
	case 0x8d: // LEA computes the address only; register form is #UD
		return inst.Mod != 3
	case 0x90: // NOP / PAUSE
		return true
	case 0x98, 0x99: // CBW/CWDE, CWD/CDQ
		return true
	case 0xa8, 0xa9: // TEST AL/eAX, imm
		return true
	case 0xc0, 0xc1, 0xd0, 0xd1, 0xd2, 0xd3: // shift group 2
		return inst.Mod == 3
	case 0xe0, 0xe1, 0xe2, 0xe3: // LOOPcc, JCXZ
		return true
	case 0xe9, 0xeb: // JMP rel
		return true
	case 0xf5, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd: // CMC/CLC/STC/CLI/STI/CLD/STD
		return true
	case 0xf6, 0xf7: // group 3: DIV/IDIV (/6, /7) can raise #DE
		return inst.Mod == 3 && inst.RegOp <= 5
	case 0xfe: // group 4: INC/DEC r/m8; /2.. is #UD
		return inst.Mod == 3 && inst.RegOp <= 1
	}
	return false
}

// twoByteNoFault is the 0x0F-escape half of instNoFault. Intercept-able
// operations (CPUID, RDTSC, MSR and CR accesses, INVLPG) are excluded
// even when their intercept is currently off, as are segment loads and
// pushes.
func twoByteNoFault(inst *Inst) bool {
	op := inst.Op
	switch {
	case op >= 0x40 && op <= 0x4f: // CMOVcc
		return inst.Mod == 3
	case op >= 0x80 && op <= 0x8f: // Jcc relZ
		return true
	case op >= 0x90 && op <= 0x9f: // SETcc
		return inst.Mod == 3
	case op >= 0xc8 && op <= 0xcf: // BSWAP
		return true
	}
	switch op {
	case 0x06, 0x08, 0x09, 0x1f: // CLTS, INVD, WBINVD, long NOP
		return true
	case 0x21, 0x23: // MOV r,DRn / MOV DRn,r — modelled as register-only
		return true
	case 0xa3, 0xab, 0xb3, 0xbb: // BT/BTS/BTR/BTC r/m, r
		return inst.Mod == 3
	case 0xba: // group 8: /4-/7 are the bit tests, below is #UD
		return inst.Mod == 3 && inst.RegOp >= 4
	case 0xa4, 0xa5, 0xac, 0xad: // SHLD/SHRD
		return inst.Mod == 3
	case 0xaf: // IMUL r, r/m
		return inst.Mod == 3
	case 0xb0, 0xb1: // CMPXCHG
		return inst.Mod == 3
	case 0xb6, 0xb7, 0xbe, 0xbf: // MOVZX/MOVSX
		return inst.Mod == 3
	case 0xbc, 0xbd: // BSF/BSR
		return inst.Mod == 3
	case 0xc0, 0xc1: // XADD
		return inst.Mod == 3
	}
	return false
}

// memFuseClass classifies the memory forms of the instructions whose
// only fault source is their r/m access, and returns the access's size
// in bytes. Everything else with a memory operand is fuseNever: IDIV,
// memory-operand MUL and DIV, the stack, string and segment forms.
func memFuseClass(inst *Inst) (fuseClass, uint8) {
	op := inst.Op
	size := uint8(inst.OpSize)
	if op&1 == 0 {
		size = 1 // the byte forms below sit at even opcodes
	}
	if inst.TwoByte {
		switch op {
		case 0xb6, 0xbe: // MOVZX/MOVSX r, r/m8
			return fuseLoad, 1
		case 0xb7, 0xbf: // MOVZX/MOVSX r, r/m16
			return fuseLoad, 2
		}
		return fuseNever, 0
	}
	switch {
	case op < 0x40 && op&7 <= 1: // ALU r/m, r; CMP only reads
		if op>>3&7 == aluCMP {
			return fuseLoad, size
		}
		return fuseRMW, size
	case op < 0x40 && op&7 <= 3: // ALU r, r/m
		return fuseLoad, size
	}
	switch op {
	case 0x80, 0x81, 0x82, 0x83: // group 1: ALU r/m, imm; CMP only reads
		if inst.RegOp == aluCMP {
			return fuseLoad, size
		}
		return fuseRMW, size
	case 0x84, 0x85, 0x8a, 0x8b: // TEST r/m, r; MOV r, r/m
		return fuseLoad, size
	case 0x88, 0x89: // MOV r/m, r
		return fuseStore, size
	case 0xc6, 0xc7: // MOV r/m, imm
		if inst.RegOp == 0 {
			return fuseStore, size
		}
	case 0xfe, 0xff: // INC/DEC r/m
		if inst.RegOp <= 1 {
			return fuseRMW, size
		}
	}
	return fuseNever, 0
}
