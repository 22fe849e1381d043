package x86

// execTwoByte executes the 0x0F escape opcodes.
func (ip *Interp) execTwoByte(inst *Inst) error {
	st := ip.St
	op := int(inst.Op)

	switch {
	case op >= 0x40 && op <= 0x4f: // CMOVcc
		v, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		if st.condition(op & 0xf) {
			st.SetReg(inst.RegOp, inst.OpSize, v)
		}
		return nil
	case op >= 0x80 && op <= 0x8f: // Jcc relZ
		if st.condition(op & 0xf) {
			st.EIP += signExtend(inst.Imm, inst.OpSize)
			if inst.OpSize == 2 {
				st.EIP &= 0xffff
			}
		}
		return nil
	case op >= 0x90 && op <= 0x9f: // SETcc
		var v uint32
		if st.condition(op & 0xf) {
			v = 1
		}
		return ip.writeRM(inst, 1, v)
	case op >= 0xc8 && op <= 0xcf: // BSWAP
		r := op - 0xc8
		v := st.GPR[r]
		st.GPR[r] = v<<24 | v<<8&0xff0000 | v>>8&0xff00 | v>>24
		return nil
	}

	switch op {
	case 0x00: // group 6: LLDT/LTR etc. — accepted as no-ops (flat model)
		switch inst.RegOp {
		case 2, 3: // LLDT, LTR
			_, err := ip.readRM(inst, 2)
			return err
		}
		return UDFault()
	case 0x01: // group 7
		return ip.execGroup7(inst)
	case 0x06: // CLTS
		return nil
	case 0x08, 0x09: // INVD, WBINVD
		return nil
	case 0x0b: // UD2
		return UDFault()
	case 0x1f: // long NOP
		return nil
	case 0x20: // MOV r, CRn
		if inst.RegOp == 1 || inst.RegOp > 4 {
			return UDFault()
		}
		if ip.IC.CR {
			return ip.vmexit(VMExit{Reason: ExitCRAccess, CR: inst.RegOp, CRWrite: false, CRGPR: inst.RM})
		}
		st.GPR[inst.RM] = ip.readCR(inst.RegOp)
		return nil
	case 0x22: // MOV CRn, r
		if inst.RegOp == 1 || inst.RegOp > 4 {
			return UDFault()
		}
		val := st.GPR[inst.RM]
		if ip.IC.CR {
			return ip.vmexit(VMExit{Reason: ExitCRAccess, CR: inst.RegOp, CRWrite: true, CRGPR: inst.RM, CRVal: val})
		}
		return ip.writeCR(inst.RegOp, val)
	case 0x21, 0x23: // MOV r, DRn / MOV DRn, r — debug registers ignored
		if op == 0x21 {
			st.GPR[inst.RM] = 0
		}
		return nil
	case 0x30: // WRMSR
		if ip.IC.MSR {
			return ip.vmexit(VMExit{Reason: ExitMSR, MSR: st.GPR[ECX], MSRWrite: true,
				MSRVal: uint64(st.GPR[EDX])<<32 | uint64(st.GPR[EAX])})
		}
		ip.MSRs[st.GPR[ECX]] = uint64(st.GPR[EDX])<<32 | uint64(st.GPR[EAX])
		return nil
	case 0x31: // RDTSC
		if ip.IC.RDTSC {
			return ip.vmexit(VMExit{Reason: ExitRDTSC})
		}
		v := ip.tsc()
		st.GPR[EAX] = uint32(v)
		st.GPR[EDX] = uint32(v >> 32)
		return nil
	case 0x32: // RDMSR
		if ip.IC.MSR {
			return ip.vmexit(VMExit{Reason: ExitMSR, MSR: st.GPR[ECX], MSRWrite: false})
		}
		v := ip.MSRs[st.GPR[ECX]]
		st.GPR[EAX] = uint32(v)
		st.GPR[EDX] = uint32(v >> 32)
		return nil
	case 0xa0: // PUSH FS
		return ip.push(uint32(st.Seg[FS].Sel), inst.OpSize)
	case 0xa1: // POP FS
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		return ip.loadSeg(FS, uint16(v))
	case 0xa8: // PUSH GS
		return ip.push(uint32(st.Seg[GS].Sel), inst.OpSize)
	case 0xa9: // POP GS
		v, err := ip.pop(inst.OpSize)
		if err != nil {
			return err
		}
		return ip.loadSeg(GS, uint16(v))
	case 0xa2: // CPUID
		if ip.IC.CPUID {
			return ip.vmexit(VMExit{Reason: ExitCPUID})
		}
		a, b, c, d := CPUIDValues(st.GPR[EAX], st.GPR[ECX])
		st.GPR[EAX], st.GPR[EBX], st.GPR[ECX], st.GPR[EDX] = a, b, c, d
		return nil
	case 0xa3, 0xab, 0xb3, 0xbb: // BT/BTS/BTR/BTC r/m, r: a signed offset
		return ip.execBitTest(inst, op>>3&3, signExtend(st.Reg(inst.RegOp, inst.OpSize), inst.OpSize))
	case 0xba: // group 8: /4 BT, /5 BTS, /6 BTR, /7 BTC r/m, imm8
		if inst.RegOp < 4 {
			return UDFault()
		}
		// An immediate offset is taken modulo the operand size, so it
		// never leaves the operand.
		return ip.execBitTest(inst, inst.RegOp-4, inst.Imm%(uint32(inst.OpSize)*8))
	case 0xa4, 0xac: // SHLD/SHRD r/m, r, imm8
		return ip.execDblShift(inst, op == 0xa4, inst.Imm&31)
	case 0xa5, 0xad: // SHLD/SHRD r/m, r, CL
		return ip.execDblShift(inst, op == 0xa5, uint32(st.Reg8(ECX))&31)
	case 0xaf: // IMUL r, r/m
		src, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		return ip.imul2(inst, st.Reg(inst.RegOp, inst.OpSize), src)
	case 0xb0, 0xb1: // CMPXCHG
		size := byteOr(op == 0xb0, inst.OpSize)
		dst, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		acc := st.Reg(EAX, size)
		st.flagsSub(acc, dst, acc-dst, size, 0) // ZF = acc == dst
		if acc == dst {
			return ip.writeRM(inst, size, st.Reg(inst.RegOp, size))
		}
		// A failed compare writes the destination back too (SDM: DEST ←
		// TEMP), so a read-only destination faults either way.
		st.SetReg(EAX, size, dst)
		return ip.writeRM(inst, size, dst)
	case 0xb6, 0xb7: // MOVZX
		srcSize := 1
		if op == 0xb7 {
			srcSize = 2
		}
		v, err := ip.readRM(inst, srcSize)
		if err != nil {
			return err
		}
		st.SetReg(inst.RegOp, inst.OpSize, v)
		return nil
	case 0xbe, 0xbf: // MOVSX
		srcSize := 1
		if op == 0xbf {
			srcSize = 2
		}
		v, err := ip.readRM(inst, srcSize)
		if err != nil {
			return err
		}
		st.SetReg(inst.RegOp, inst.OpSize, signExtend(v, srcSize))
		return nil
	case 0xbc: // BSF
		v, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		v &= sizeMask(inst.OpSize)
		if v == 0 {
			st.SetFlag(FlagZF, true)
			return nil
		}
		st.SetFlag(FlagZF, false)
		n := uint32(0)
		for v&1 == 0 {
			v >>= 1
			n++
		}
		st.SetReg(inst.RegOp, inst.OpSize, n)
		return nil
	case 0xbd: // BSR
		v, err := ip.readRM(inst, inst.OpSize)
		if err != nil {
			return err
		}
		v &= sizeMask(inst.OpSize)
		if v == 0 {
			st.SetFlag(FlagZF, true)
			return nil
		}
		st.SetFlag(FlagZF, false)
		n := uint32(0)
		for v > 1 {
			v >>= 1
			n++
		}
		st.SetReg(inst.RegOp, inst.OpSize, n)
		return nil
	case 0xc0, 0xc1: // XADD
		size := byteOr(op == 0xc0, inst.OpSize)
		dst, err := ip.readRM(inst, size)
		if err != nil {
			return err
		}
		src := st.Reg(inst.RegOp, size)
		res := dst + src
		st.flagsAdd(dst, src, res, size, 0)
		// SRC ← DEST, then DEST ← sum: xadd eax, eax doubles EAX.
		st.SetReg(inst.RegOp, size, dst)
		return ip.writeRM(inst, size, res)
	}
	return UDFault()
}

// execBitTest implements BT, BTS, BTR and BTC (kind 0-3) with a
// register or immediate bit offset; they set CF to the tested bit.
func (ip *Interp) execBitTest(inst *Inst, kind int, bitIdx uint32) error {
	st := ip.St
	if inst.Mod == 3 {
		v := st.Reg(inst.RM, inst.OpSize)
		idx := bitIdx % (uint32(inst.OpSize) * 8)
		st.setFlags(FlagCF, v>>idx&1)
		if kind == 0 {
			return nil
		}
		st.SetReg(inst.RM, inst.OpSize, flipBit(kind, v, idx))
		return nil
	}
	// Memory form: a register offset can address beyond the operand;
	// the byte holding the bit is read and written.
	off, seg := inst.effectiveAddr(st)
	addr := off + uint32(int32(bitIdx)>>3)
	v, err := ip.memRead(seg, addr, 1)
	if err != nil {
		return err
	}
	idx := bitIdx & 7
	st.setFlags(FlagCF, v>>idx&1)
	if kind == 0 {
		return nil
	}
	return ip.memWrite(seg, addr, 1, flipBit(kind, v, idx))
}

// flipBit sets (BTS, kind 1), clears (BTR, 2) or complements (BTC, 3)
// bit idx of v.
func flipBit(kind int, v, idx uint32) uint32 {
	switch kind {
	case 1:
		return v | 1<<idx
	case 2:
		return v &^ (1 << idx)
	}
	return v ^ 1<<idx
}

// execDblShift implements SHLD/SHRD.
func (ip *Interp) execDblShift(inst *Inst, left bool, count uint32) error {
	st := ip.St
	size := inst.OpSize
	if count == 0 {
		return nil
	}
	bits := uint32(size) * 8
	if count > bits {
		return nil // undefined; leave unchanged
	}
	dst, err := ip.readRM(inst, size)
	if err != nil {
		return err
	}
	src := st.Reg(inst.RegOp, size)
	var res, cf uint32
	if left {
		wide := uint64(dst)<<bits | uint64(src)
		wide <<= count
		res = uint32(wide>>bits) & sizeMask(size)
		cf = dst >> (bits - count) & 1
	} else {
		wide := uint64(src)<<bits | uint64(dst)
		wide >>= count
		res = uint32(wide) & sizeMask(size)
		cf = dst >> (count - 1) & 1
	}
	st.setFlags(FlagCF|FlagSF|FlagZF|FlagPF, cf|szp(res, size))
	return ip.writeRM(inst, size, res)
}

// execGroup7 handles 0F 01: SGDT/SIDT/LGDT/LIDT/SMSW/LMSW/INVLPG.
func (ip *Interp) execGroup7(inst *Inst) error {
	st := ip.St
	switch inst.RegOp {
	case 0, 1: // SGDT/SIDT
		if inst.Mod == 3 {
			return UDFault()
		}
		t := st.GDTR
		if inst.RegOp == 1 {
			t = st.IDTR
		}
		off, seg := inst.effectiveAddr(st)
		if err := ip.memWrite(seg, off, 2, uint32(t.Limit)); err != nil {
			return err
		}
		return ip.memWrite(seg, off+2, 4, t.Base)
	case 2, 3: // LGDT/LIDT
		if inst.Mod == 3 {
			return UDFault()
		}
		off, seg := inst.effectiveAddr(st)
		limit, err := ip.memRead(seg, off, 2)
		if err != nil {
			return err
		}
		base, err := ip.memRead(seg, off+2, 4)
		if err != nil {
			return err
		}
		if inst.OpSize == 2 {
			base &= 0xffffff
		}
		if inst.RegOp == 2 {
			st.GDTR = DescTable{Base: base, Limit: uint16(limit)}
		} else {
			st.IDTR = DescTable{Base: base, Limit: uint16(limit)}
		}
		return nil
	case 4: // SMSW
		return ip.writeRM(inst, 2, st.CR0&0xffff)
	case 6: // LMSW
		v, err := ip.readRM(inst, 2)
		if err != nil {
			return err
		}
		if ip.IC.CR {
			return ip.vmexit(VMExit{Reason: ExitCRAccess, CR: 0, CRWrite: true,
				CRVal: st.CR0&^0xf | v&0xf})
		}
		return ip.writeCR(0, st.CR0&^0xf|v&0xf)
	case 7: // INVLPG
		if inst.Mod == 3 {
			return UDFault()
		}
		off, seg := inst.effectiveAddr(st)
		la := ip.linear(seg, off)
		if ip.IC.INVLPG {
			return ip.vmexit(VMExit{Reason: ExitINVLPG, Linear: la})
		}
		ip.Env.InvalidateTLB(st, false, la)
		return nil
	}
	return UDFault()
}

// readCR reads a control register.
func (ip *Interp) readCR(cr int) uint32 {
	st := ip.St
	switch cr {
	case 0:
		return st.CR0
	case 2:
		return st.CR2
	case 3:
		return st.CR3
	case 4:
		return st.CR4
	}
	return 0
}

// writeCR writes a control register (non-intercepted path), applying TLB
// maintenance as hardware would.
func (ip *Interp) writeCR(cr int, val uint32) error {
	st := ip.St
	switch cr {
	case 0:
		pgChanged := (st.CR0^val)&(CR0PG|CR0PE) != 0
		st.CR0 = val
		if pgChanged {
			ip.Env.InvalidateTLB(st, true, 0)
		}
	case 2:
		st.CR2 = val
	case 3:
		st.CR3 = val
		ip.Env.InvalidateTLB(st, true, 0)
	case 4:
		st.CR4 = val
		ip.Env.InvalidateTLB(st, true, 0)
	}
	return nil
}

// WriteCR is the exported variant used by the microhypervisor when it
// emulates an intercepted CR access (vTLB mode, §5.3).
func (ip *Interp) WriteCR(cr int, val uint32) error { return ip.writeCR(cr, val) }

// ReadCR is the exported variant for intercepted CR reads.
func (ip *Interp) ReadCR(cr int) uint32 { return ip.readCR(cr) }
