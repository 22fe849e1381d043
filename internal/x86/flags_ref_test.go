package x86

// The per-flag implementation of every status-flag writer, kept as the
// test reference for the one-mask writers in flags.go and the exec
// files: one read-modify-write SetFlag call per flag, in the order the
// interpreter used to make them. TestFlagWritersMatchReference and
// FuzzFlags run each instruction through the interpreter and through
// these, and compare the whole CPUState.

func (c *CPUState) refSetSZP(res uint32, size int) {
	res &= sizeMask(size)
	c.SetFlag(FlagZF, res == 0)
	c.SetFlag(FlagSF, res&signBit(size) != 0)
	c.SetFlag(FlagPF, refParity(res))
}

func (c *CPUState) refFlagsAdd(dst, src, res uint32, size int, carryIn uint32) {
	m := sizeMask(size)
	dst, src, res = dst&m, src&m, res&m
	c.refSetSZP(res, size)
	c.SetFlag(FlagCF, uint64(dst)+uint64(src)+uint64(carryIn) > uint64(m))
	c.SetFlag(FlagAF, (dst^src^res)&0x10 != 0)
	c.SetFlag(FlagOF, (dst^res)&(src^res)&signBit(size) != 0)
}

func (c *CPUState) refFlagsSub(dst, src, res uint32, size int, borrowIn uint32) {
	m := sizeMask(size)
	dst, src, res = dst&m, src&m, res&m
	c.refSetSZP(res, size)
	c.SetFlag(FlagCF, uint64(dst) < uint64(src)+uint64(borrowIn))
	c.SetFlag(FlagAF, (dst^src^res)&0x10 != 0)
	c.SetFlag(FlagOF, (dst^src)&(dst^res)&signBit(size) != 0)
}

func (c *CPUState) refFlagsLogic(res uint32, size int) {
	c.refSetSZP(res, size)
	c.SetFlag(FlagCF, false)
	c.SetFlag(FlagOF, false)
	c.SetFlag(FlagAF, false)
}

func (c *CPUState) refFlagsInc(res uint32, size int) {
	c.refSetSZP(res, size)
	c.SetFlag(FlagAF, res&0xf == 0)
	c.SetFlag(FlagOF, res&sizeMask(size) == signBit(size))
}

func (c *CPUState) refFlagsDec(res uint32, size int) {
	c.refSetSZP(res, size)
	c.SetFlag(FlagAF, res&0xf == 0xf)
	c.SetFlag(FlagOF, res&sizeMask(size) == signBit(size)-1)
}

// refALU is ADD OR ADC SBB AND SUB XOR CMP (aluOp 0-7). It reports
// whether the result is written back (all but CMP).
func (c *CPUState) refALU(aluOp int, dst, src uint32, size int) (uint32, bool) {
	var res uint32
	switch aluOp {
	case 0: // ADD
		res = dst + src
		c.refFlagsAdd(dst, src, res, size, 0)
	case 1: // OR
		res = dst | src
		c.refFlagsLogic(res, size)
	case 2: // ADC
		cf := uint32(0)
		if c.GetFlag(FlagCF) {
			cf = 1
		}
		res = dst + src + cf
		c.refFlagsAdd(dst, src, res, size, cf)
	case 3: // SBB
		b := uint32(0)
		if c.GetFlag(FlagCF) {
			b = 1
		}
		res = dst - src - b
		c.refFlagsSub(dst, src, res, size, b)
	case 4: // AND
		res = dst & src
		c.refFlagsLogic(res, size)
	case 5: // SUB
		res = dst - src
		c.refFlagsSub(dst, src, res, size, 0)
	case 6: // XOR
		res = dst ^ src
		c.refFlagsLogic(res, size)
	case 7: // CMP
		res = dst - src
		c.refFlagsSub(dst, src, res, size, 0)
		return 0, false
	}
	return res & sizeMask(size), true
}

// refShift is ROL ROR RCL RCR SHL SHR SAL SAR (regOp 0-7) of v by
// count. It reports whether the result is written back: a masked count
// of zero changes nothing.
func (c *CPUState) refShift(regOp int, v, count uint32, size int) (uint32, bool) {
	count &= 31
	if count == 0 {
		return 0, false
	}
	bits := uint32(size) * 8
	v &= sizeMask(size)
	var res uint32
	switch regOp {
	case 0: // ROL
		n := count % bits
		res = v<<n | v>>(bits-n)
		if n == 0 {
			res = v
		}
		c.SetFlag(FlagCF, res&1 != 0)
		c.SetFlag(FlagOF, (res&1)^(res>>(bits-1)&1) != 0)
	case 1: // ROR
		n := count % bits
		res = v>>n | v<<(bits-n)
		if n == 0 {
			res = v
		}
		c.SetFlag(FlagCF, res&signBit(size) != 0)
		c.SetFlag(FlagOF, (res>>(bits-1)&1)^(res>>(bits-2)&1) != 0)
	case 2: // RCL
		cf := uint32(0)
		if c.GetFlag(FlagCF) {
			cf = 1
		}
		wide := uint64(v) | uint64(cf)<<bits
		n := count % (bits + 1)
		wide = wide<<n | wide>>(uint64(bits)+1-uint64(n))
		res = uint32(wide) & sizeMask(size)
		c.SetFlag(FlagCF, wide>>bits&1 != 0)
		c.SetFlag(FlagOF, (uint32(wide>>bits)&1)^(res>>(bits-1)&1) != 0)
	case 3: // RCR
		cf := uint32(0)
		if c.GetFlag(FlagCF) {
			cf = 1
		}
		wide := uint64(v) | uint64(cf)<<bits
		n := count % (bits + 1)
		wide = wide>>n | wide<<(uint64(bits)+1-uint64(n))
		res = uint32(wide) & sizeMask(size)
		c.SetFlag(FlagCF, wide>>bits&1 != 0)
		c.SetFlag(FlagOF, (res>>(bits-1)&1)^(res>>(bits-2)&1) != 0)
	case 4, 6: // SHL/SAL
		if count > bits {
			res = 0
			c.SetFlag(FlagCF, false)
		} else {
			res = v << count
			c.SetFlag(FlagCF, v>>(bits-count)&1 != 0)
		}
		res &= sizeMask(size)
		c.refSetSZP(res, size)
		cf := uint32(0)
		if c.GetFlag(FlagCF) {
			cf = 1
		}
		c.SetFlag(FlagOF, (res>>(bits-1)&1) != cf)
	case 5: // SHR
		if count > bits {
			res = 0
			c.SetFlag(FlagCF, false)
		} else {
			res = v >> count
			c.SetFlag(FlagCF, v>>(count-1)&1 != 0)
		}
		c.refSetSZP(res, size)
		c.SetFlag(FlagOF, v&signBit(size) != 0)
	case 7: // SAR
		sv := int64(int32(signExtend(v, size)))
		if count >= bits {
			count = bits - 1
			c.SetFlag(FlagCF, sv>>count&1 != 0)
			res = uint32(sv>>count) & sizeMask(size)
		} else {
			c.SetFlag(FlagCF, sv>>(count-1)&1 != 0)
			res = uint32(sv>>count) & sizeMask(size)
		}
		c.refSetSZP(res, size)
		c.SetFlag(FlagOF, false)
	}
	return res, true
}

// refNeg returns -v and sets NEG's flags.
func (c *CPUState) refNeg(v uint32, size int) uint32 {
	v &= sizeMask(size)
	res := -v & sizeMask(size)
	c.refFlagsSub(0, v, res, size, 0)
	c.SetFlag(FlagCF, v != 0)
	return res
}

// refMul is one-operand MUL: (E)DX:(E)AX or AX = accumulator * v.
func (c *CPUState) refMul(v uint32, size int) {
	v &= sizeMask(size)
	prod := uint64(c.Reg(EAX, size)) * uint64(v)
	hi := uint32(prod >> (uint(size) * 8))
	c.SetReg(EAX, size, uint32(prod))
	if size == 1 {
		c.SetReg(EAX, 2, uint32(prod))
	} else {
		c.SetReg(EDX, size, hi)
	}
	over := hi != 0
	if size == 1 {
		over = uint32(prod)>>8 != 0
	}
	c.SetFlag(FlagCF, over)
	c.SetFlag(FlagOF, over)
}

// refImul1 is one-operand IMUL.
func (c *CPUState) refImul1(v uint32, size int) {
	a := int64(int32(signExtend(c.Reg(EAX, size), size)))
	b := int64(int32(signExtend(v&sizeMask(size), size)))
	prod := a * b
	c.SetReg(EAX, size, uint32(prod))
	if size == 1 {
		c.SetReg(EAX, 2, uint32(prod)&0xffff)
	} else {
		c.SetReg(EDX, size, uint32(prod>>(uint(size)*8)))
	}
	over := prod != int64(int32(signExtend(uint32(prod), size)))
	c.SetFlag(FlagCF, over)
	c.SetFlag(FlagOF, over)
}

// refImul2 is the two- and three-operand IMUL: reg = src * imm.
func (c *CPUState) refImul2(reg int, src, imm uint32, size int) {
	a := int64(int32(signExtend(src, size)))
	b := int64(int32(signExtend(imm, size)))
	prod := a * b
	c.SetReg(reg, size, uint32(prod))
	over := prod != int64(int32(signExtend(uint32(prod), size)))
	c.SetFlag(FlagCF, over)
	c.SetFlag(FlagOF, over)
}

// refBitTest is the register form of BT BTS BTR BTC (kind 0-3) on v.
// It reports whether v changed and is written back.
func (c *CPUState) refBitTest(kind int, v, bitIdx uint32, size int) (uint32, bool) {
	idx := bitIdx % (uint32(size) * 8)
	c.SetFlag(FlagCF, v>>idx&1 != 0)
	switch kind {
	case 1:
		v |= 1 << idx
	case 2:
		v &^= 1 << idx
	case 3:
		v ^= 1 << idx
	default:
		return 0, false
	}
	return v, true
}

// refDblShift is SHLD (left) or SHRD of dst by count, filling from src.
// It reports whether the result is written back.
func (c *CPUState) refDblShift(left bool, dst, src, count uint32, size int) (uint32, bool) {
	count &= 31
	bits := uint32(size) * 8
	if count == 0 || count > bits {
		return 0, false
	}
	var res uint32
	if left {
		wide := uint64(dst)<<bits | uint64(src)
		wide <<= count
		res = uint32(wide>>bits) & sizeMask(size)
		c.SetFlag(FlagCF, dst>>(bits-count)&1 != 0)
	} else {
		wide := uint64(src)<<bits | uint64(dst)
		wide >>= count
		res = uint32(wide) & sizeMask(size)
		c.SetFlag(FlagCF, dst>>(count-1)&1 != 0)
	}
	c.refSetSZP(res, size)
	return res, true
}
