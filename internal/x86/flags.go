package x86

// Flag computation helpers. Arithmetic flags follow the Intel SDM
// definitions for each operation class; size is the operand size in
// bytes (1, 2 or 4).
//
// Every status-flag writer builds the flags it defines as one mask and
// stores EFLAGS once (setFlags): the bits it leaves unchanged, TF, IF,
// DF and the fixed bit among them, keep their value. EFLAGS holds the
// architectural value after every instruction, so readers need no
// materializing step.

// arithFlags are the six status flags an ADD- or SUB-class op writes.
const arithFlags = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF

// shiftFlags are the flags SHL, SHR and SAR write: all six but AF.
const shiftFlags = arithFlags &^ FlagAF

func signBit(size int) uint32 { return 1 << (uint(size)*8 - 1) }

func sizeMask(size int) uint32 {
	switch size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

// parityPF holds FlagPF for every byte of even parity, 0 otherwise.
var parityPF = func() (t [256]uint8) {
	for b := range t {
		v := b ^ b>>4
		v ^= v >> 2
		v ^= v >> 1
		if v&1 == 0 {
			t[b] = uint8(FlagPF)
		}
	}
	return t
}()

// msb returns the sign bit of a size-byte value as 0 or 1.
func msb(v uint32, size int) uint32 { return v >> (uint(size)*8 - 1) & 1 }

// flagIf returns f if b holds, else 0.
func flagIf(b bool, f uint32) uint32 {
	if b {
		return f
	}
	return 0
}

// szp returns SF, ZF and PF of a result already masked to size.
func szp(res uint32, size int) uint32 {
	return uint32(parityPF[uint8(res)]) | flagIf(res == 0, FlagZF) | msb(res, size)*FlagSF
}

// setFlags stores mask into the written bits of EFLAGS in one write.
func (c *CPUState) setFlags(written, mask uint32) { c.EFLAGS = c.EFLAGS&^written | mask }

// flagsAdd sets all arithmetic flags for dst + src (+carryIn) = res.
func (c *CPUState) flagsAdd(dst, src, res uint32, size int, carryIn uint32) {
	m := sizeMask(size)
	dst, src, res = dst&m, src&m, res&m
	cf := uint32((uint64(dst) + uint64(src) + uint64(carryIn)) >> (uint(size) * 8))
	c.setFlags(arithFlags, szp(res, size)|cf|(dst^src^res)&FlagAF|msb((dst^res)&(src^res), size)*FlagOF)
}

// flagsSub sets all arithmetic flags for dst - src (- borrowIn) = res.
func (c *CPUState) flagsSub(dst, src, res uint32, size int, borrowIn uint32) {
	m := sizeMask(size)
	dst, src, res = dst&m, src&m, res&m
	cf := uint32((uint64(dst) - uint64(src) - uint64(borrowIn)) >> 63)
	c.setFlags(arithFlags, szp(res, size)|cf|(dst^src^res)&FlagAF|msb((dst^src)&(dst^res), size)*FlagOF)
}

// flagsLogic sets flags for AND/OR/XOR/TEST results: CF=OF=AF=0.
func (c *CPUState) flagsLogic(res uint32, size int) {
	c.setFlags(arithFlags, szp(res&sizeMask(size), size))
}

// flagsInc sets flags for INC (CF unchanged).
func (c *CPUState) flagsInc(res uint32, size int) {
	res &= sizeMask(size)
	c.setFlags(arithFlags&^FlagCF, szp(res, size)|flagIf(res&0xf == 0, FlagAF)|flagIf(res == signBit(size), FlagOF))
}

// flagsDec sets flags for DEC (CF unchanged).
func (c *CPUState) flagsDec(res uint32, size int) {
	res &= sizeMask(size)
	c.setFlags(arithFlags&^FlagCF, szp(res, size)|flagIf(res&0xf == 0xf, FlagAF)|flagIf(res == signBit(size)-1, FlagOF))
}

// condition evaluates a Jcc/SETcc/CMOVcc condition code (low nibble of
// the opcode).
func (c *CPUState) condition(cc int) bool {
	var r bool
	switch cc >> 1 {
	case 0: // O
		r = c.GetFlag(FlagOF)
	case 1: // B/C
		r = c.GetFlag(FlagCF)
	case 2: // Z/E
		r = c.GetFlag(FlagZF)
	case 3: // BE
		r = c.GetFlag(FlagCF) || c.GetFlag(FlagZF)
	case 4: // S
		r = c.GetFlag(FlagSF)
	case 5: // P
		r = c.GetFlag(FlagPF)
	case 6: // L
		r = c.GetFlag(FlagSF) != c.GetFlag(FlagOF)
	case 7: // LE
		r = c.GetFlag(FlagZF) || c.GetFlag(FlagSF) != c.GetFlag(FlagOF)
	}
	if cc&1 != 0 {
		return !r
	}
	return r
}

// signExtend widens v of the given byte size to 32 bits.
func signExtend(v uint32, size int) uint32 {
	switch size {
	case 1:
		return uint32(int32(int8(v)))
	case 2:
		return uint32(int32(int16(v)))
	default:
		return v
	}
}
