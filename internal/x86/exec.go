package x86

// exec executes one decoded instruction. EIP has already been advanced
// past the instruction; jump instructions overwrite it.
func (ip *Interp) exec(inst *Inst) error {
	st := ip.St
	op := int(inst.Op)

	if inst.TwoByte {
		return ip.execTwoByte(inst)
	}

	// The regular ALU block: 8 operations x 6 encodings.
	if op < 0x40 && op&7 <= 5 {
		return ip.execALUBlock(inst)
	}

	switch op {
	case 0x06, 0x0e, 0x16, 0x1e: // PUSH ES/CS/SS/DS
		return ip.push(uint32(st.Seg[op>>3].Sel), inst.OpSize)
	case 0x07, 0x17, 0x1f: // POP ES/SS/DS
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		return ip.loadSeg(op>>3, uint16(v))
	}

	switch {
	case op >= 0x40 && op <= 0x47: // INC r
		r := op - 0x40
		v := st.Reg(r, inst.OpSize) + 1
		st.SetReg(r, inst.OpSize, v)
		st.flagsInc(v, inst.OpSize)
		return nil
	case op >= 0x48 && op <= 0x4f: // DEC r
		r := op - 0x48
		v := st.Reg(r, inst.OpSize) - 1
		st.SetReg(r, inst.OpSize, v)
		st.flagsDec(v, inst.OpSize)
		return nil
	case op >= 0x50 && op <= 0x57: // PUSH r
		return ip.push(st.Reg(op-0x50, inst.OpSize), inst.OpSize)
	case op >= 0x58 && op <= 0x5f: // POP r
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		st.SetReg(op-0x58, inst.OpSize, v)
		return nil
	case op >= 0x70 && op <= 0x7f: // Jcc rel8
		if st.condition(op & 0xf) {
			st.EIP += signExtend(inst.Imm, 1)
			if !st.Seg[CS].Def32 {
				st.EIP &= 0xffff
			}
		}
		return nil
	case op >= 0x91 && op <= 0x97: // XCHG eAX, r
		r := op - 0x90
		a, b := st.Reg(EAX, inst.OpSize), st.Reg(r, inst.OpSize)
		st.SetReg(EAX, inst.OpSize, b)
		st.SetReg(r, inst.OpSize, a)
		return nil
	case op >= 0xb0 && op <= 0xb7: // MOV r8, imm8
		st.SetReg8(op-0xb0, uint8(inst.Imm))
		return nil
	case op >= 0xb8 && op <= 0xbf: // MOV r, immZ
		st.SetReg(op-0xb8, inst.OpSize, inst.Imm)
		return nil
	}

	switch op {
	case 0x60: // PUSHA
		return ip.pusha(inst.OpSize)
	case 0x61: // POPA
		return ip.popa(inst.OpSize)
	case 0x68, 0x6a: // PUSH immZ / imm8
		v := inst.Imm
		if op == 0x6a {
			v = signExtend(v, 1)
		}
		return ip.push(v, inst.OpSize)
	case 0x69, 0x6b: // IMUL r, r/m, imm
		src, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		imm := inst.Imm
		if op == 0x6b {
			imm = signExtend(imm, 1)
		}
		return ip.imul2(inst, src, imm)
	case 0x80, 0x81, 0x82, 0x83: // group 1: ALU r/m, imm
		return ip.execGroup1(inst)
	case 0x84, 0x85: // TEST r/m, r
		size := byteOr(op == 0x84, inst.OpSize)
		a, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		st.flagsLogic(a&st.Reg(inst.RegOp, size), size)
		return nil
	case 0x86, 0x87: // XCHG r/m, r
		size := byteOr(op == 0x86, inst.OpSize)
		a, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		b := st.Reg(inst.RegOp, size)
		if err := ip.writeRM(inst, size, b); err != nil {
			return err
		}
		st.SetReg(inst.RegOp, size, a)
		return nil
	case 0x88, 0x89: // MOV r/m, r
		size := byteOr(op == 0x88, inst.OpSize)
		return ip.writeRM(inst, size, st.Reg(inst.RegOp, size))
	case 0x8a, 0x8b: // MOV r, r/m
		size := byteOr(op == 0x8a, inst.OpSize)
		v, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		st.SetReg(inst.RegOp, size, v)
		return nil
	case 0x8c: // MOV r/m16, Sreg
		if inst.RegOp >= 6 {
			return UDFault()
		}
		return ip.writeRM(inst, 2, uint32(st.Seg[inst.RegOp].Sel))
	case 0x8d: // LEA
		if inst.Mod == 3 {
			return UDFault()
		}
		off, _ := inst.effectiveAddr(st)
		if inst.OpSize == 2 {
			off &= 0xffff
		}
		st.SetReg(inst.RegOp, inst.OpSize, off)
		return nil
	case 0x8e: // MOV Sreg, r/m16
		if inst.RegOp == CS || inst.RegOp >= 6 {
			return UDFault()
		}
		v, err := ip.readRM(inst, 2)
		if err != nil {
			return err
		}
		return ip.loadSeg(inst.RegOp, uint16(v))
	case 0x8f: // POP r/m
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		return ip.writeRM(inst, inst.OpSize, v)
	case 0x90: // NOP (XCHG eAX, eAX)
		return nil
	case 0x98: // CBW/CWDE
		if inst.OpSize == 2 {
			st.SetReg(EAX, 2, signExtend(st.Reg(EAX, 1), 1))
		} else {
			st.GPR[EAX] = signExtend(st.Reg(EAX, 2), 2)
		}
		return nil
	case 0x99: // CWD/CDQ
		if int32(st.GPR[EAX])<<(32-uint(inst.OpSize)*8) < 0 {
			st.SetReg(EDX, inst.OpSize, sizeMask(inst.OpSize))
		} else {
			st.SetReg(EDX, inst.OpSize, 0)
		}
		return nil
	case 0x9a: // CALL far ptr16:Z
		if err := ip.push(uint32(st.Seg[CS].Sel), inst.OpSize); err != nil {
			return err
		}
		if err := ip.push(st.EIP, inst.OpSize); err != nil {
			return err
		}
		if err := ip.loadSeg(CS, uint16(inst.Imm2)); err != nil {
			return err
		}
		st.EIP = inst.Imm
		return nil
	case 0x9c: // PUSHF
		return ip.push(st.EFLAGS&sizeMask(inst.OpSize), inst.OpSize)
	case 0x9d: // POPF
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		const writable = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagTF | FlagIF | FlagDF | FlagOF
		if inst.OpSize == 2 {
			st.EFLAGS = st.EFLAGS&^(writable&0xffff) | v&writable&0xffff | FlagsFixed
		} else {
			st.EFLAGS = st.EFLAGS&^writable | v&writable | FlagsFixed
		}
		return nil
	case 0xa0, 0xa1: // MOV AL/eAX, moffs
		size := byteOr(op == 0xa0, inst.OpSize)
		seg := DS
		if inst.SegOv >= 0 {
			seg = inst.SegOv
		}
		v, err := ip.memRead(seg, inst.Imm, size)
		if err != nil {
			return err
		}
		st.SetReg(EAX, size, v)
		return nil
	case 0xa2, 0xa3: // MOV moffs, AL/eAX
		size := byteOr(op == 0xa2, inst.OpSize)
		seg := DS
		if inst.SegOv >= 0 {
			seg = inst.SegOv
		}
		return ip.memWrite(seg, inst.Imm, size, st.Reg(EAX, size))
	case 0xa4, 0xa5, 0xa6, 0xa7, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf:
		return ip.execString(inst)
	case 0xa8, 0xa9: // TEST AL/eAX, imm
		size := byteOr(op == 0xa8, inst.OpSize)
		st.flagsLogic(st.Reg(EAX, size)&inst.Imm, size)
		return nil
	case 0xc0, 0xc1, 0xd0, 0xd1, 0xd2, 0xd3: // shift group
		return ip.execShiftGroup(inst)
	case 0xc2: // RET imm16
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		st.EIP = v
		ip.adjustSP(inst.Imm)
		return nil
	case 0xc3: // RET
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		st.EIP = v
		return nil
	case 0xc6, 0xc7: // MOV r/m, imm
		size := byteOr(op == 0xc6, inst.OpSize)
		return ip.writeRM(inst, size, inst.Imm)
	case 0xc9: // LEAVE
		st.GPR[ESP] = st.GPR[EBP]
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		st.SetReg(EBP, inst.OpSize, v)
		return nil
	case 0xca, 0xcb: // RET far [imm16]
		eip, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		cs, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		if err := ip.loadSeg(CS, uint16(cs)); err != nil {
			return err
		}
		st.EIP = eip
		if op == 0xca {
			ip.adjustSP(inst.Imm)
		}
		return nil
	case 0xcc: // INT3
		return ip.deliverEvent(VecBP, 0, false, true)
	case 0xcd: // INT imm8
		return ip.deliverEvent(int(inst.Imm), 0, false, true)
	case 0xcf: // IRET
		return ip.iret(inst.OpSize)
	case 0xe0, 0xe1, 0xe2: // LOOPNE/LOOPE/LOOP
		cx := st.Reg(ECX, inst.AddrSize) - 1
		st.SetReg(ECX, inst.AddrSize, cx)
		take := cx != 0
		if op == 0xe0 {
			take = take && !st.GetFlag(FlagZF)
		} else if op == 0xe1 {
			take = take && st.GetFlag(FlagZF)
		}
		if take {
			st.EIP += signExtend(inst.Imm, 1)
		}
		return nil
	case 0xe3: // JCXZ
		if st.Reg(ECX, inst.AddrSize) == 0 {
			st.EIP += signExtend(inst.Imm, 1)
		}
		return nil
	case 0xe4, 0xe5, 0xec, 0xed: // IN
		size := byteOr(op == 0xe4 || op == 0xec, inst.OpSize)
		port := uint16(inst.Imm)
		if op >= 0xec {
			port = uint16(st.GPR[EDX])
		}
		if ip.IC.IO {
			return ip.vmexit(VMExit{Reason: ExitIO, Port: port, Size: size, In: true})
		}
		v, err := ip.Env.In(port, size)
		if err != nil {
			return err
		}
		st.SetReg(EAX, size, v)
		return nil
	case 0xe6, 0xe7, 0xee, 0xef: // OUT
		size := byteOr(op == 0xe6 || op == 0xee, inst.OpSize)
		port := uint16(inst.Imm)
		if op >= 0xee {
			port = uint16(st.GPR[EDX])
		}
		val := st.Reg(EAX, size)
		if ip.IC.IO {
			return ip.vmexit(VMExit{Reason: ExitIO, Port: port, Size: size, In: false, OutVal: val})
		}
		return ip.Env.Out(port, size, val)
	case 0xe8: // CALL relZ
		if err := ip.push(st.EIP, inst.OpSize); err != nil {
			return err
		}
		st.EIP += signExtend(inst.Imm, inst.OpSize)
		if inst.OpSize == 2 {
			st.EIP &= 0xffff
		}
		return nil
	case 0xe9: // JMP relZ
		st.EIP += signExtend(inst.Imm, inst.OpSize)
		if inst.OpSize == 2 {
			st.EIP &= 0xffff
		}
		return nil
	case 0xea: // JMP far ptr16:Z
		if err := ip.loadSeg(CS, uint16(inst.Imm2)); err != nil {
			return err
		}
		st.EIP = inst.Imm
		return nil
	case 0xeb: // JMP rel8
		st.EIP += signExtend(inst.Imm, 1)
		if !st.Seg[CS].Def32 {
			st.EIP &= 0xffff
		}
		return nil
	case 0xf4: // HLT
		if ip.IC.HLT {
			return ip.vmexit(VMExit{Reason: ExitHLT})
		}
		st.Halted = true
		return nil
	case 0xf5: // CMC
		st.SetFlag(FlagCF, !st.GetFlag(FlagCF))
		return nil
	case 0xf6, 0xf7: // group 3
		return ip.execGroup3(inst)
	case 0xf8: // CLC
		st.SetFlag(FlagCF, false)
		return nil
	case 0xf9: // STC
		st.SetFlag(FlagCF, true)
		return nil
	case 0xfa: // CLI
		st.SetFlag(FlagIF, false)
		return nil
	case 0xfb: // STI
		if !st.IF() {
			st.IntShadow = true
		}
		st.SetFlag(FlagIF, true)
		return nil
	case 0xfc: // CLD
		st.SetFlag(FlagDF, false)
		return nil
	case 0xfd: // STD
		st.SetFlag(FlagDF, true)
		return nil
	case 0xfe: // group 4: INC/DEC r/m8
		v, err := ip.readRM(inst, 1)
		if err != nil {
			return err
		}
		switch inst.RegOp {
		case 0:
			v++
			if err := ip.writeRM(inst, 1, v); err != nil {
				return err
			}
			st.flagsInc(v, 1)
		case 1:
			v--
			if err := ip.writeRM(inst, 1, v); err != nil {
				return err
			}
			st.flagsDec(v, 1)
		default:
			return UDFault()
		}
		return nil
	case 0xff: // group 5
		return ip.execGroup5(inst)
	}
	return UDFault()
}

// byteOr picks size 1 for byte-form opcodes, else the instruction size.
func byteOr(isByte bool, opSize int) int {
	if isByte {
		return 1
	}
	return opSize
}

// adjustSP releases imm bytes of stack (RET imm16).
func (ip *Interp) adjustSP(imm uint32) {
	st := ip.St
	if ip.stackWidth() == 4 {
		st.GPR[ESP] += imm
	} else {
		st.GPR[ESP] = st.GPR[ESP]&^0xffff | (st.GPR[ESP]+imm)&0xffff
	}
}

// iret pops the interrupt frame.
func (ip *Interp) iret(opSize int) error {
	st := ip.St
	size := opSize
	if !st.ProtectedMode() {
		size = 2
	}
	eip, err := ip.pop(size)
	if err != nil {
		return err
	}
	cs, err := ip.pop(size)
	if err != nil {
		return err
	}
	fl, err := ip.pop(size)
	if err != nil {
		return err
	}
	if err := ip.loadSeg(CS, uint16(cs)); err != nil {
		return err
	}
	st.EIP = eip
	const writable = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagTF | FlagIF | FlagDF | FlagOF
	if size == 2 {
		st.EFLAGS = st.EFLAGS&^(writable&0xffff) | fl&writable&0xffff | FlagsFixed
	} else {
		st.EFLAGS = st.EFLAGS&^writable | fl&writable | FlagsFixed
	}
	return nil
}

// execALUBlock handles the 0x00-0x3d two-operand ALU encodings.
func (ip *Interp) execALUBlock(inst *Inst) error {
	st := ip.St
	op := int(inst.Op)
	aluOp := op >> 3 & 7 // ADD OR ADC SBB AND SUB XOR CMP
	form := op & 7

	size := inst.OpSize
	if form == 0 || form == 2 || form == 4 {
		size = 1
	}

	switch form {
	case 0, 1: // r/m, r
		dst, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		res := st.aluOp(aluOp, dst, st.Reg(inst.RegOp, size), size)
		if aluOp == aluCMP {
			return nil
		}
		return ip.writeRM(inst, size, res)
	case 2, 3: // r, r/m
		src, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		res := st.aluOp(aluOp, st.Reg(inst.RegOp, size), src, size)
		if aluOp != aluCMP {
			st.SetReg(inst.RegOp, size, res)
		}
	default: // 4, 5: AL/eAX, imm
		res := st.aluOp(aluOp, st.Reg(EAX, size), inst.Imm, size)
		if aluOp != aluCMP {
			st.SetReg(EAX, size, res)
		}
	}
	return nil
}

// execGroup1 handles 0x80-0x83: ALU r/m, imm.
func (ip *Interp) execGroup1(inst *Inst) error {
	size := inst.OpSize
	if inst.Op == 0x80 || inst.Op == 0x82 {
		size = 1
	}
	src := inst.Imm
	if inst.Op == 0x83 {
		src = signExtend(src, 1)
	}
	dst, err := ip.readRM(inst, size)
	if err != nil {
		return err
	}
	res := ip.St.aluOp(inst.RegOp, dst, src, size)
	if inst.RegOp == aluCMP {
		return nil
	}
	return ip.writeRM(inst, size, res)
}

// aluCMP is the ALU operation that only sets flags.
const aluCMP = 7

// aluOp executes one of the 8 classic ALU operations, sets its flags
// and returns the result masked to size; the caller writes it back
// unless the operation is aluCMP.
func (c *CPUState) aluOp(aluOp int, dst, src uint32, size int) uint32 {
	var res uint32
	switch aluOp {
	case 0: // ADD
		res = dst + src
		c.flagsAdd(dst, src, res, size, 0)
	case 1: // OR
		res = dst | src
		c.flagsLogic(res, size)
	case 2: // ADC
		cf := uint32(0)
		if c.GetFlag(FlagCF) {
			cf = 1
		}
		res = dst + src + cf
		c.flagsAdd(dst, src, res, size, cf)
	case 3: // SBB
		b := uint32(0)
		if c.GetFlag(FlagCF) {
			b = 1
		}
		res = dst - src - b
		c.flagsSub(dst, src, res, size, b)
	case 4: // AND
		res = dst & src
		c.flagsLogic(res, size)
	case 5, aluCMP: // SUB, CMP
		res = dst - src
		c.flagsSub(dst, src, res, size, 0)
	case 6: // XOR
		res = dst ^ src
		c.flagsLogic(res, size)
	}
	return res & sizeMask(size)
}

// pusha pushes all eight GPRs.
func (ip *Interp) pusha(size int) error {
	st := ip.St
	sp := st.GPR[ESP]
	for _, r := range []int{EAX, ECX, EDX, EBX} {
		if err := ip.push(st.Reg(r, size), size); err != nil {
			return err
		}
	}
	if err := ip.push(sp&sizeMask(size), size); err != nil {
		return err
	}
	for _, r := range []int{EBP, ESI, EDI} {
		if err := ip.push(st.Reg(r, size), size); err != nil {
			return err
		}
	}
	return nil
}

// popa pops all eight GPRs (skipping ESP).
func (ip *Interp) popa(size int) error {
	st := ip.St
	for _, r := range []int{EDI, ESI, EBP} {
		v, err := ip.pop(size)
		if err != nil {
			return err
		}
		st.SetReg(r, size, v)
	}
	if _, err := ip.pop(size); err != nil { // discard saved SP
		return err
	}
	for _, r := range []int{EBX, EDX, ECX, EAX} {
		v, err := ip.pop(size)
		if err != nil {
			return err
		}
		st.SetReg(r, size, v)
	}
	return nil
}
