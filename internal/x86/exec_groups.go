package x86

// execShiftGroup handles 0xC0/0xC1 (imm8), 0xD0/0xD1 (by 1) and
// 0xD2/0xD3 (by CL): ROL ROR RCL RCR SHL SHR SAL SAR.
func (ip *Interp) execShiftGroup(inst *Inst) error {
	st := ip.St
	size := inst.OpSize
	if inst.Op == 0xc0 || inst.Op == 0xd0 || inst.Op == 0xd2 {
		size = 1
	}
	var count uint32
	switch inst.Op {
	case 0xc0, 0xc1:
		count = inst.Imm
	case 0xd0, 0xd1:
		count = 1
	default:
		count = uint32(st.Reg8(ECX)) // CL
	}
	count &= 31
	v, err := ip.readRM(inst, size)
	if err != nil {
		return err
	}
	if count == 0 {
		return nil // flags unchanged
	}
	bits := uint32(size) * 8
	v &= sizeMask(size)
	var res, cf, fl uint32
	written := FlagCF | FlagOF // rotates leave SF, ZF, AF and PF alone
	switch inst.RegOp {
	case 0: // ROL
		c := count % bits
		res = v<<c | v>>(bits-c)
		if c == 0 {
			res = v
		}
		cf = res & 1
		fl = cf | (cf^msb(res, size))*FlagOF
	case 1: // ROR
		c := count % bits
		res = v>>c | v<<(bits-c)
		if c == 0 {
			res = v
		}
		cf = msb(res, size)
		fl = cf | (cf^res>>(bits-2)&1)*FlagOF
	case 2: // RCL
		wide := uint64(v) | uint64(boolBit(st.GetFlag(FlagCF)))<<bits
		c := count % (bits + 1)
		wide = wide<<c | wide>>(uint64(bits)+1-uint64(c))
		res = uint32(wide) & sizeMask(size)
		cf = uint32(wide>>bits) & 1
		fl = cf | (cf^msb(res, size))*FlagOF
	case 3: // RCR
		wide := uint64(v) | uint64(boolBit(st.GetFlag(FlagCF)))<<bits
		c := count % (bits + 1)
		wide = wide>>c | wide<<(uint64(bits)+1-uint64(c))
		res = uint32(wide) & sizeMask(size)
		cf = uint32(wide>>bits) & 1
		fl = cf | (msb(res, size)^res>>(bits-2)&1)*FlagOF
	case 4, 6: // SHL/SAL; a shift past the operand leaves 0 and CF clear
		written = shiftFlags
		if count <= bits {
			res = v << count & sizeMask(size)
			cf = v >> (bits - count) & 1
		}
		fl = cf | szp(res, size) | (msb(res, size)^cf)*FlagOF
	case 5: // SHR
		written = shiftFlags
		if count <= bits {
			res = v >> count
			cf = v >> (count - 1) & 1
		}
		fl = cf | szp(res, size) | msb(v, size)*FlagOF
	case 7: // SAR: OF clear
		written = shiftFlags
		sv := int64(int32(signExtend(v, size)))
		if count >= bits {
			count = bits - 1
			cf = uint32(sv>>count) & 1
		} else {
			cf = uint32(sv>>(count-1)) & 1
		}
		res = uint32(sv>>count) & sizeMask(size)
		fl = cf | szp(res, size)
	}
	st.setFlags(written, fl)
	return ip.writeRM(inst, size, res)
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// execGroup3 handles 0xF6/0xF7: TEST, NOT, NEG, MUL, IMUL, DIV, IDIV.
func (ip *Interp) execGroup3(inst *Inst) error {
	st := ip.St
	size := inst.OpSize
	if inst.Op == 0xf6 {
		size = 1
	}
	v, err := ip.readRM(inst, size)
	if err != nil {
		return err
	}
	v &= sizeMask(size)
	switch inst.RegOp {
	case 4, 5:
		ip.ExtraCycles += 4 // multiply latency
	case 6, 7:
		ip.ExtraCycles += 38 // divide latency
	}
	switch inst.RegOp {
	case 0, 1: // TEST r/m, imm
		st.flagsLogic(v&inst.Imm, size)
		return nil
	case 2: // NOT
		return ip.writeRM(inst, size, ^v&sizeMask(size))
	case 3: // NEG
		res := -v & sizeMask(size)
		st.flagsSub(0, v, res, size, 0) // CF = v != 0
		return ip.writeRM(inst, size, res)
	case 4: // MUL
		a := st.Reg(EAX, size)
		prod := uint64(a) * uint64(v)
		hi := uint32(prod >> (uint(size) * 8))
		st.SetReg(EAX, size, uint32(prod))
		if size == 1 {
			st.SetReg(EAX, 2, uint32(prod)) // AX = AL*r/m8
		} else {
			st.SetReg(EDX, size, hi)
		}
		over := hi != 0
		if size == 1 {
			over = uint32(prod)>>8 != 0
		}
		st.setFlags(FlagCF|FlagOF, flagIf(over, FlagCF|FlagOF))
		return nil
	case 5: // IMUL (one operand)
		a := int64(int32(signExtend(st.Reg(EAX, size), size)))
		b := int64(int32(signExtend(v, size)))
		prod := a * b
		st.SetReg(EAX, size, uint32(prod))
		if size == 1 {
			st.SetReg(EAX, 2, uint32(prod)&0xffff)
		} else {
			st.SetReg(EDX, size, uint32(prod>>(uint(size)*8)))
		}
		over := prod != int64(int32(signExtend(uint32(prod), size)))
		st.setFlags(FlagCF|FlagOF, flagIf(over, FlagCF|FlagOF))
		return nil
	case 6: // DIV
		if v == 0 {
			return &Exception{Vector: VecDE}
		}
		var num uint64
		if size == 1 {
			num = uint64(st.Reg(EAX, 2))
		} else {
			num = uint64(st.Reg(EDX, size))<<(uint(size)*8) | uint64(st.Reg(EAX, size))
		}
		q := num / uint64(v)
		r := num % uint64(v)
		if q > uint64(sizeMask(size)) {
			return &Exception{Vector: VecDE}
		}
		if size == 1 {
			st.SetReg8(EAX, uint8(q))
			st.SetReg8(4, uint8(r)) // AH
		} else {
			st.SetReg(EAX, size, uint32(q))
			st.SetReg(EDX, size, uint32(r))
		}
		return nil
	case 7: // IDIV
		if v == 0 {
			return &Exception{Vector: VecDE}
		}
		var num int64
		if size == 1 {
			num = int64(int16(st.Reg(EAX, 2)))
		} else {
			num = int64(uint64(st.Reg(EDX, size))<<(uint(size)*8) | uint64(st.Reg(EAX, size)))
			if size == 2 {
				num = int64(int32(uint32(num)))
			}
		}
		d := int64(int32(signExtend(v, size)))
		q := num / d
		r := num % d
		lim := int64(sizeMask(size) >> 1)
		if q > lim || q < -lim-1 {
			return &Exception{Vector: VecDE}
		}
		if size == 1 {
			st.SetReg8(EAX, uint8(q))
			st.SetReg8(4, uint8(r))
		} else {
			st.SetReg(EAX, size, uint32(q))
			st.SetReg(EDX, size, uint32(r))
		}
		return nil
	}
	return UDFault()
}

// execGroup5 handles 0xFF: INC, DEC, CALL, CALL far, JMP, JMP far, PUSH.
func (ip *Interp) execGroup5(inst *Inst) error {
	st := ip.St
	switch inst.RegOp {
	case 0: // INC r/m
		v, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		v++
		if err := ip.writeRM(inst, inst.OpSize, v); err != nil {
			return err
		}
		st.flagsInc(v, inst.OpSize)
		return nil
	case 1: // DEC r/m
		v, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		v--
		if err := ip.writeRM(inst, inst.OpSize, v); err != nil {
			return err
		}
		st.flagsDec(v, inst.OpSize)
		return nil
	case 2: // CALL near r/m
		target, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		if err := ip.push(st.EIP, inst.OpSize); err != nil {
			return err
		}
		st.EIP = target & sizeMask(inst.OpSize)
		return nil
	case 3, 5: // CALL/JMP far m16:Z
		if inst.Mod == 3 {
			return UDFault()
		}
		off, seg := inst.effectiveAddr(st)
		target, err := ip.memRead(seg, off, inst.OpSize)
		if err != nil {
			return err
		}
		sel, err := ip.memRead(seg, off+uint32(inst.OpSize), 2)
		if err != nil {
			return err
		}
		if inst.RegOp == 3 {
			if err := ip.push(uint32(st.Seg[CS].Sel), inst.OpSize); err != nil {
				return err
			}
			if err := ip.push(st.EIP, inst.OpSize); err != nil {
				return err
			}
		}
		if err := ip.loadSeg(CS, uint16(sel)); err != nil {
			return err
		}
		st.EIP = target
		return nil
	case 4: // JMP near r/m
		target, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		st.EIP = target & sizeMask(inst.OpSize)
		return nil
	case 6: // PUSH r/m
		v, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		return ip.push(v, inst.OpSize)
	}
	return UDFault()
}

// imul2 implements the two/three-operand IMUL forms.
func (ip *Interp) imul2(inst *Inst, src, imm uint32) error {
	st := ip.St
	size := inst.OpSize
	a := int64(int32(signExtend(src, size)))
	b := int64(int32(signExtend(imm, size)))
	prod := a * b
	st.SetReg(inst.RegOp, size, uint32(prod))
	over := prod != int64(int32(signExtend(uint32(prod), size)))
	st.setFlags(FlagCF|FlagOF, flagIf(over, FlagCF|FlagOF))
	return nil
}
