package x86

import "fmt"

// Inst is one decoded instruction: prefixes, opcode, ModRM/SIB
// addressing, displacement and immediates. Both the guest-mode
// interpreter and the VMM's instruction emulator (§7.1) consume this.
type Inst struct {
	Len     int  // total encoded length in bytes
	Op      byte // primary opcode byte
	TwoByte bool // 0x0F escape

	OpSize   int // 2 or 4 from prefixes/mode; byte ops override to 1 at execution
	AddrSize int // 2 or 4

	SegOv      int // segment override register index, or -1
	Rep, RepNE bool
	Lock       bool

	// fuse and accessSize hold the decode's fuse class and the size of
	// its memory access (classify), set once by decodeInto; no code
	// changes an Inst after decode.
	fuse       fuseClass
	accessSize uint8

	HasModRM       bool
	Mod, RegOp, RM int
	HasSIB         bool
	Scale          int // SIB scale as shift amount (0-3)
	Index          int // SIB index register, -1 if none
	Base           int // SIB/modrm base register, -1 if none
	Disp           int32

	Imm  uint32
	Imm2 uint32 // segment selector of far pointers
}

// immKind encodes what trails the ModRM bytes.
type immKind uint8

const (
	immNone immKind = iota
	imm8
	immZ    // 16 or 32 bits by operand size
	imm16   // always 16 bits
	immMoff // address-sized memory offset (A0-A3)
	immFar  // ptr16:Z far pointer
	immGrp3 // F6/F7: imm only for /0 and /1 (TEST)
)

// The decode tables are init-only: filled below during package
// initialization and never written (or aliased out) afterwards, so
// concurrent machines can share them read-only. The globalstate
// analyzer verifies this, including writes through aliases.
var oneByteModRM = [256]bool{}
var oneByteImm = [256]immKind{}
var twoByteModRM = [256]bool{}
var twoByteImm = [256]immKind{}

func init() {
	// ALU block: op r/m,r and friends at x0-x3 of each row 0x00-0x38.
	for _, base := range []int{0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38} {
		for off := 0; off < 4; off++ {
			oneByteModRM[base+off] = true
		}
		oneByteImm[base+4] = imm8 // op AL, imm8
		oneByteImm[base+5] = immZ // op eAX, immZ
	}
	for _, b := range []int{0x62, 0x63, 0x69, 0x6b, 0x84, 0x85, 0x86, 0x87,
		0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d, 0x8e, 0x8f,
		0xc0, 0xc1, 0xc4, 0xc5, 0xc6, 0xc7, 0xd0, 0xd1, 0xd2, 0xd3,
		0xf6, 0xf7, 0xfe, 0xff} {
		oneByteModRM[b] = true
	}
	oneByteModRM[0x80], oneByteModRM[0x81], oneByteModRM[0x82], oneByteModRM[0x83] = true, true, true, true

	oneByteImm[0x69] = immZ
	oneByteImm[0x6b] = imm8
	oneByteImm[0x68] = immZ
	oneByteImm[0x6a] = imm8
	for b := 0x70; b <= 0x7f; b++ {
		oneByteImm[b] = imm8
	}
	oneByteImm[0x80], oneByteImm[0x82] = imm8, imm8
	oneByteImm[0x81] = immZ
	oneByteImm[0x83] = imm8
	oneByteImm[0x9a] = immFar
	for b := 0xa0; b <= 0xa3; b++ {
		oneByteImm[b] = immMoff
	}
	oneByteImm[0xa8] = imm8
	oneByteImm[0xa9] = immZ
	for b := 0xb0; b <= 0xb7; b++ {
		oneByteImm[b] = imm8
	}
	for b := 0xb8; b <= 0xbf; b++ {
		oneByteImm[b] = immZ
	}
	oneByteImm[0xc0], oneByteImm[0xc1] = imm8, imm8
	oneByteImm[0xc2] = imm16
	oneByteImm[0xc6] = imm8
	oneByteImm[0xc7] = immZ
	oneByteImm[0xcd] = imm8
	for b := 0xe0; b <= 0xe7; b++ {
		oneByteImm[b] = imm8 // LOOPcc, JCXZ, IN/OUT imm8
	}
	oneByteImm[0xe8], oneByteImm[0xe9] = immZ, immZ
	oneByteImm[0xea] = immFar
	oneByteImm[0xeb] = imm8
	oneByteImm[0xf6] = immGrp3
	oneByteImm[0xf7] = immGrp3

	for _, b := range []int{0x00, 0x01, 0x20, 0x21, 0x22, 0x23, 0xa3, 0xab,
		0xaf, 0xb0, 0xb1, 0xb3, 0xb6, 0xb7, 0xba, 0xbb, 0xbc, 0xbd,
		0xbe, 0xbf, 0xc0, 0xc1, 0xa4, 0xa5, 0xac, 0xad} {
		twoByteModRM[b] = true
	}
	for b := 0x40; b <= 0x4f; b++ {
		twoByteModRM[b] = true // CMOVcc
	}
	for b := 0x90; b <= 0x9f; b++ {
		twoByteModRM[b] = true // SETcc
	}
	for b := 0x80; b <= 0x8f; b++ {
		twoByteImm[b] = immZ // Jcc relZ
	}
	twoByteImm[0xba] = imm8 // BT group
	twoByteImm[0xa4] = imm8 // SHLD imm8
	twoByteImm[0xac] = imm8 // SHRD imm8
}

// ByteFetcher supplies consecutive instruction bytes; errors propagate
// fetch faults out of the decoder.
type ByteFetcher interface {
	FetchByte() (byte, error)
}

// BytesFetcher feeds the decoder from a plain byte slice, for decoding
// instruction bytes captured outside a running guest (the profiler's
// hot-site disassembly).
type BytesFetcher struct {
	Data []byte
	off  int
}

// FetchByte implements ByteFetcher.
func (f *BytesFetcher) FetchByte() (byte, error) {
	if f.off >= len(f.Data) {
		return 0, InstTooLongError{}
	}
	b := f.Data[f.off]
	f.off++
	return b, nil
}

// InstTooLongError reports an instruction exceeding the architectural
// 15-byte limit.
type InstTooLongError struct{}

func (InstTooLongError) Error() string { return "x86: instruction longer than 15 bytes" }

type decodeCursor struct {
	f   ByteFetcher
	n   int
	err error
}

func (d *decodeCursor) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.n >= 15 {
		d.err = InstTooLongError{}
		return 0
	}
	b, err := d.f.FetchByte()
	if err != nil {
		d.err = err
		return 0
	}
	d.n++
	return b
}

func (d *decodeCursor) u16() uint32 {
	lo := uint32(d.byte())
	hi := uint32(d.byte())
	return hi<<8 | lo
}

func (d *decodeCursor) u32() uint32 {
	b0 := uint32(d.byte())
	b1 := uint32(d.byte())
	b2 := uint32(d.byte())
	b3 := uint32(d.byte())
	return b3<<24 | b2<<16 | b1<<8 | b0
}

func (d *decodeCursor) uz(size int) uint32 {
	if size == 2 {
		return d.u16()
	}
	return d.u32()
}

// Decode reads and decodes one instruction from f. def32 selects the
// default operand/address size (the D bit of the current code segment).
func Decode(f ByteFetcher, def32 bool) (*Inst, error) {
	inst := new(Inst)
	if err := decodeInto(f, def32, inst); err != nil {
		return nil, err
	}
	return inst, nil
}

// decodeInto is Decode into caller-owned storage; on error inst holds
// no meaningful decode.
func decodeInto(f ByteFetcher, def32 bool, inst *Inst) error {
	d := &decodeCursor{f: f}
	*inst = Inst{SegOv: -1, Index: -1, Base: -1}

	defSize := 2
	if def32 {
		defSize = 4
	}
	inst.OpSize, inst.AddrSize = defSize, defSize

	// Prefixes.
	var op byte
prefixes:
	for {
		op = d.byte()
		if d.err != nil {
			return d.err
		}
		switch op {
		case 0x26:
			inst.SegOv = ES
		case 0x2e:
			inst.SegOv = CS
		case 0x36:
			inst.SegOv = SS
		case 0x3e:
			inst.SegOv = DS
		case 0x64:
			inst.SegOv = FS
		case 0x65:
			inst.SegOv = GS
		case 0x66:
			if def32 {
				inst.OpSize = 2
			} else {
				inst.OpSize = 4
			}
		case 0x67:
			if def32 {
				inst.AddrSize = 2
			} else {
				inst.AddrSize = 4
			}
		case 0xf0:
			inst.Lock = true
		case 0xf2:
			inst.RepNE = true
		case 0xf3:
			inst.Rep = true
		default:
			break prefixes
		}
	}

	modrmTab, immTab := &oneByteModRM, &oneByteImm
	if op == 0x0f {
		inst.TwoByte = true
		op = d.byte()
		modrmTab, immTab = &twoByteModRM, &twoByteImm
	}
	inst.Op = op

	if modrmTab[op] {
		if err := decodeModRM(d, inst); err != nil {
			return err
		}
	}

	kind := immTab[op]
	if kind == immGrp3 {
		if inst.RegOp <= 1 { // TEST r/m, imm
			if op == 0xf6 {
				kind = imm8
			} else {
				kind = immZ
			}
		} else {
			kind = immNone
		}
	}
	switch kind {
	case imm8:
		inst.Imm = uint32(d.byte())
	case immZ:
		inst.Imm = d.uz(inst.OpSize)
	case imm16:
		inst.Imm = d.u16()
	case immMoff:
		inst.Imm = d.uz(inst.AddrSize)
	case immFar:
		inst.Imm = d.uz(inst.OpSize)
		inst.Imm2 = d.u16()
	case immNone, immGrp3:
		// No immediate bytes; immGrp3 was rewritten above for TEST.
	}
	if d.err != nil {
		return d.err
	}
	inst.Len = d.n
	classify(inst)
	return nil
}

func decodeModRM(d *decodeCursor, inst *Inst) error {
	m := d.byte()
	if d.err != nil {
		return d.err
	}
	inst.HasModRM = true
	inst.Mod = int(m >> 6)
	inst.RegOp = int(m >> 3 & 7)
	inst.RM = int(m & 7)

	if inst.Mod == 3 {
		return nil // register operand, no addressing bytes
	}

	if inst.AddrSize == 4 {
		if inst.RM == 4 { // SIB
			sib := d.byte()
			inst.HasSIB = true
			inst.Scale = int(sib >> 6 & 3) // 2-bit field; mask keeps the shift in effectiveAddr bounded
			inst.Index = int(sib >> 3 & 7)
			inst.Base = int(sib & 7)
			if inst.Index == 4 {
				inst.Index = -1 // no index
			}
			if inst.Base == 5 && inst.Mod == 0 {
				inst.Base = -1
				inst.Disp = int32(d.u32())
			}
		} else if inst.RM == 5 && inst.Mod == 0 {
			inst.Disp = int32(d.u32()) // disp32, no base
		} else {
			inst.Base = inst.RM
		}
		switch inst.Mod {
		case 1:
			inst.Disp = int32(int8(d.byte()))
		case 2:
			inst.Disp = int32(d.u32())
		}
	} else {
		// 16-bit addressing forms.
		if inst.RM == 6 && inst.Mod == 0 {
			inst.Disp = int32(d.u16())
		}
		switch inst.Mod {
		case 1:
			inst.Disp = int32(int8(d.byte()))
		case 2:
			inst.Disp = int32(int16(d.u16()))
		}
	}
	return d.err
}

// IsMemOperand reports whether the ModRM r/m operand addresses memory.
func (i *Inst) IsMemOperand() bool { return i.HasModRM && i.Mod != 3 }

// effectiveAddr computes the linear offset of the memory operand within
// its segment, and returns that segment's register index.
func (i *Inst) effectiveAddr(st *CPUState) (uint32, int) {
	seg := DS
	var off uint32
	if i.AddrSize == 4 {
		if i.Base >= 0 {
			off += st.GPR[i.Base]
			if i.Base == ESP || i.Base == EBP {
				seg = SS
			}
		}
		if i.Index >= 0 {
			off += st.GPR[i.Index] << uint(i.Scale)
		}
		off += uint32(i.Disp)
	} else {
		switch {
		case i.Mod == 0 && i.RM == 6:
			// disp16 only
		default:
			switch i.RM {
			case 0:
				off = st.GPR[EBX] + st.GPR[ESI]
			case 1:
				off = st.GPR[EBX] + st.GPR[EDI]
			case 2:
				off = st.GPR[EBP] + st.GPR[ESI]
				seg = SS
			case 3:
				off = st.GPR[EBP] + st.GPR[EDI]
				seg = SS
			case 4:
				off = st.GPR[ESI]
			case 5:
				off = st.GPR[EDI]
			case 6:
				off = st.GPR[EBP]
				seg = SS
			case 7:
				off = st.GPR[EBX]
			}
		}
		off = (off + uint32(i.Disp)) & 0xffff
	}
	if i.AddrSize == 4 {
		off += 0 // disp already added
	}
	if i.SegOv >= 0 {
		seg = i.SegOv
	}
	return off, seg
}

func (i *Inst) String() string {
	esc := ""
	if i.TwoByte {
		esc = "0f "
	}
	return fmt.Sprintf("inst{%s%02x len=%d opsize=%d mod=%d reg=%d rm=%d disp=%d imm=%#x}",
		esc, i.Op, i.Len, i.OpSize, i.Mod, i.RegOp, i.RM, i.Disp, i.Imm)
}
