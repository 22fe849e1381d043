package x86

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// flagRig executes `op eax, [mem]` snippets repeatedly with fresh
// operands, capturing EFLAGS via PUSHFD.
type flagRig struct {
	env *flatEnv
	ip  *Interp
	st  *CPUState
}

func newFlagRig(t *testing.T, mnemonic string) *flagRig {
	t.Helper()
	code := MustAssemble("bits 32\norg 0x1000\n" +
		"	mov eax, [0x5000]\n" +
		"	" + mnemonic + " eax, [0x5004]\n" +
		"	pushfd\n" +
		"	pop ebx\n" +
		"	hlt\n")
	env := newFlatEnv(1 << 20)
	copy(env.mem[0x1000:], code)
	st := &CPUState{}
	ip := NewInterp(env, st, Intercepts{})
	return &flagRig{env: env, ip: ip, st: st}
}

// run executes the snippet with the given operands and returns
// (result, eflags).
func (r *flagRig) run(t *testing.T, a, b uint32) (uint32, uint32) {
	t.Helper()
	r.st.Reset()
	r.st.CR0 = CR0PE
	for i := range r.st.Seg {
		r.st.Seg[i] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
	}
	r.st.EIP = 0x1000
	r.st.GPR[ESP] = 0x80000
	for i := 0; i < 4; i++ {
		r.env.mem[0x5000+i] = byte(a >> (8 * uint(i)))
		r.env.mem[0x5004+i] = byte(b >> (8 * uint(i)))
	}
	for i := 0; i < 10 && !r.st.Halted; i++ {
		if err := r.ip.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	return r.st.GPR[EAX], r.st.GPR[EBX]
}

// Reference flag computations per the Intel SDM.
func refParity(v uint32) bool {
	v &= 0xff
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v&1 == 0
}

type refFlags struct{ cf, pf, af, zf, sf, of bool }

func refAdd(a, b uint32) (uint32, refFlags) {
	res := a + b
	return res, refFlags{
		cf: uint64(a)+uint64(b) > 0xffffffff,
		pf: refParity(res),
		af: (a^b^res)&0x10 != 0,
		zf: res == 0,
		sf: res>>31 != 0,
		of: (a^res)&(b^res)>>31&1 != 0,
	}
}

func refSub(a, b uint32) (uint32, refFlags) {
	res := a - b
	return res, refFlags{
		cf: a < b,
		pf: refParity(res),
		af: (a^b^res)&0x10 != 0,
		zf: res == 0,
		sf: res>>31 != 0,
		of: (a^b)&(a^res)>>31&1 != 0,
	}
}

func refLogic(res uint32) refFlags {
	return refFlags{pf: refParity(res), zf: res == 0, sf: res>>31 != 0}
}

func checkFlags(t *testing.T, mnem string, a, b, gotRes, gotFl uint32, wantRes uint32, want refFlags) bool {
	t.Helper()
	if gotRes != wantRes {
		t.Errorf("%s(%#x,%#x): result %#x, want %#x", mnem, a, b, gotRes, wantRes)
		return false
	}
	for _, c := range []struct {
		name string
		bit  uint32
		want bool
	}{
		{"CF", FlagCF, want.cf}, {"PF", FlagPF, want.pf}, {"AF", FlagAF, want.af},
		{"ZF", FlagZF, want.zf}, {"SF", FlagSF, want.sf}, {"OF", FlagOF, want.of},
	} {
		if got := gotFl&c.bit != 0; got != c.want {
			t.Errorf("%s(%#x,%#x): %s = %v, want %v", mnem, a, b, c.name, got, c.want)
			return false
		}
	}
	return true
}

func TestALUFlagsAgainstReference(t *testing.T) {
	type refFn func(a, b uint32) (uint32, refFlags)
	cases := map[string]refFn{
		"add": refAdd,
		"sub": refSub,
		"and": func(a, b uint32) (uint32, refFlags) { return a & b, refLogic(a & b) },
		"or":  func(a, b uint32) (uint32, refFlags) { return a | b, refLogic(a | b) },
		"xor": func(a, b uint32) (uint32, refFlags) { return a ^ b, refLogic(a ^ b) },
	}
	for mnem, ref := range cases {
		rig := newFlagRig(t, mnem)
		f := func(a, b uint32) bool {
			gotRes, gotFl := rig.run(t, a, b)
			wantRes, want := ref(a, b)
			return checkFlags(t, mnem, a, b, gotRes, gotFl, wantRes, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", mnem, err)
		}
		// Edge cases quick.Check may miss.
		for _, p := range [][2]uint32{
			{0, 0}, {0xffffffff, 1}, {0x7fffffff, 1}, {0x80000000, 0x80000000},
			{0x80000000, 1}, {1, 0xffffffff},
		} {
			gotRes, gotFl := rig.run(t, p[0], p[1])
			wantRes, want := ref(p[0], p[1])
			checkFlags(t, mnem, p[0], p[1], gotRes, gotFl, wantRes, want)
		}
	}
}

func TestCmpMatchesSubFlags(t *testing.T) {
	rig := newFlagRig(t, "cmp")
	f := func(a, b uint32) bool {
		gotRes, gotFl := rig.run(t, a, b)
		if gotRes != a {
			t.Errorf("cmp modified eax: %#x", gotRes)
			return false
		}
		_, want := refSub(a, b)
		return checkFlags(t, "cmp", a, b, a, gotFl, a, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIncDecPreserveCF(t *testing.T) {
	// INC/DEC must leave CF untouched (stc first, then inc).
	for _, src := range []string{
		"stc\n	inc eax\n", "stc\n	dec eax\n",
	} {
		env := newFlatEnv(1 << 20)
		code := MustAssemble("bits 32\norg 0x1000\n	mov eax, 5\n	" + src + "	hlt\n")
		copy(env.mem[0x1000:], code)
		st := &CPUState{}
		st.Reset()
		st.CR0 = CR0PE
		for i := range st.Seg {
			st.Seg[i] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
		}
		st.EIP = 0x1000
		ip := NewInterp(env, st, Intercepts{})
		for i := 0; i < 10 && !st.Halted; i++ {
			if err := ip.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if !st.GetFlag(FlagCF) {
			t.Errorf("%q cleared CF", src)
		}
	}
}

func TestShiftFlagReference(t *testing.T) {
	// SHL/SHR carry = last bit shifted out.
	for _, tc := range []struct {
		src    string
		val    uint32
		wantCF bool
		want   uint32
	}{
		{"shl eax, 1", 0x80000000, true, 0},
		{"shl eax, 1", 0x40000000, false, 0x80000000},
		{"shr eax, 1", 1, true, 0},
		{"shr eax, 4", 0x18, true, 1},
		{"sar eax, 1", 0x80000000, false, 0xc0000000},
		{"sar eax, 31", 0xffffffff, true, 0xffffffff},
	} {
		env := newFlatEnv(1 << 20)
		code := MustAssemble("bits 32\norg 0x1000\n	" + tc.src + "\n	hlt\n")
		copy(env.mem[0x1000:], code)
		st := &CPUState{}
		st.Reset()
		st.CR0 = CR0PE
		for i := range st.Seg {
			st.Seg[i] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
		}
		st.EIP = 0x1000
		st.GPR[EAX] = tc.val
		ip := NewInterp(env, st, Intercepts{})
		for i := 0; i < 10 && !st.Halted; i++ {
			if err := ip.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if st.GPR[EAX] != tc.want {
			t.Errorf("%q(%#x): result %#x, want %#x", tc.src, tc.val, st.GPR[EAX], tc.want)
		}
		if st.GetFlag(FlagCF) != tc.wantCF {
			t.Errorf("%q(%#x): CF = %v, want %v", tc.src, tc.val, st.GetFlag(FlagCF), tc.wantCF)
		}
	}
}

func TestMulDivReference(t *testing.T) {
	// MUL/DIV against Go's 64-bit arithmetic.
	f := func(a, b uint32) bool {
		if b == 0 {
			return true
		}
		env := newFlatEnv(1 << 20)
		code := MustAssemble(`bits 32
org 0x1000
	mov eax, [0x5000]
	mov ecx, [0x5004]
	mul ecx
	mov esi, eax
	mov edi, edx
	mov eax, [0x5000]
	xor edx, edx
	div ecx
	hlt`)
		copy(env.mem[0x1000:], code)
		st := &CPUState{}
		st.Reset()
		st.CR0 = CR0PE
		for i := range st.Seg {
			st.Seg[i] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
		}
		st.EIP = 0x1000
		for i := 0; i < 4; i++ {
			env.mem[0x5000+i] = byte(a >> (8 * uint(i)))
			env.mem[0x5004+i] = byte(b >> (8 * uint(i)))
		}
		ip := NewInterp(env, st, Intercepts{})
		for i := 0; i < 20 && !st.Halted; i++ {
			if err := ip.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
		prod := uint64(a) * uint64(b)
		if st.GPR[ESI] != uint32(prod) || st.GPR[EDI] != uint32(prod>>32) {
			t.Errorf("mul(%#x,%#x) = %#x:%#x, want %#x:%#x", a, b, st.GPR[EDI], st.GPR[ESI],
				uint32(prod>>32), uint32(prod))
			return false
		}
		if st.GPR[EAX] != a/b || st.GPR[EDX] != a%b {
			t.Errorf("div(%#x,%#x) = q%#x r%#x, want q%#x r%#x", a, b,
				st.GPR[EAX], st.GPR[EDX], a/b, a%b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// flagWriter is the register form of one status-flag writer. Its
// instruction takes the destination from EAX (AL, AX), the source from
// EDX, a count from CL, and the third operand c as its immediate; CMPS
// and SCAS compare copies of EAX at [ESI] and of EDX at [EDI]. ref
// applies the per-flag reference (flags_ref_test.go) to a copy of the
// CPUState.
type flagWriter struct {
	name  string
	sizes []int
	// reads names the operands that matter: a (EAX), b (EDX), c (an
	// operand-sized ECX or immediate) or n (a count in CL or imm8).
	reads string
	asm   func(size int, c uint32) string
	ref   func(st *CPUState, size int, c uint32)
}

// sizedRegs expands {a}, {d} and {c} to EAX, EDX and ECX at each
// operand size.
var sizedRegs = map[int]*strings.Replacer{
	1: strings.NewReplacer("{a}", "al", "{d}", "dl", "{c}", "cl"),
	2: strings.NewReplacer("{a}", "ax", "{d}", "dx", "{c}", "cx"),
	4: strings.NewReplacer("{a}", "eax", "{d}", "edx", "{c}", "ecx"),
}

// asmForm assembles src with its registers at the operand size and {i}
// as the immediate.
func asmForm(src string) func(int, uint32) string {
	return func(size int, c uint32) string {
		return strings.ReplaceAll(sizedRegs[size].Replace(src), "{i}", fmt.Sprintf("%#x", c))
	}
}

// rawForm hand-encodes the forms the assembler does not emit: op (its
// low bit set above size 1), a ModRM byte unless modrm < 0, and an
// operand-sized immediate c if imm.
func rawForm(op byte, modrm int, imm bool) func(int, uint32) string {
	return func(size int, c uint32) string {
		var b strings.Builder
		if size == 2 {
			b.WriteString("db 0x66\n")
		}
		opcode := op
		if size > 1 {
			opcode |= 1
		}
		fmt.Fprintf(&b, "db %#x\n", opcode)
		if modrm >= 0 {
			fmt.Fprintf(&b, "db %#x\n", modrm)
		}
		if imm {
			fmt.Fprintf(&b, "%s %#x\n", map[int]string{1: "db", 2: "dw", 4: "dd"}[size], c&sizeMask(size))
		}
		return b.String()
	}
}

// flagWriters lists every status-flag writer of the interpreter.
func flagWriters() []flagWriter {
	all, wide := []int{1, 2, 4}, []int{2, 4}
	intoEAX := func(st *CPUState, s int, res uint32, ok bool) {
		if ok {
			st.SetReg(EAX, s, res)
		}
	}
	var ws []flagWriter
	for k, mn := range []string{"add", "or", "adc", "sbb", "and", "sub", "xor", "cmp"} {
		alu := func(st *CPUState, s int, src uint32) {
			res, ok := st.refALU(k, st.Reg(EAX, s), src, s)
			intoEAX(st, s, res, ok)
		}
		byEDX := func(st *CPUState, s int, _ uint32) { alu(st, s, st.Reg(EDX, s)) }
		byImm := func(st *CPUState, s int, c uint32) { alu(st, s, c) }
		ws = append(ws,
			flagWriter{mn + " r/m, r", all, "ab", asmForm(mn + " {a}, {d}"), byEDX},
			flagWriter{mn + " r, r/m", all, "ab", rawForm(byte(k<<3|2), 0xc2, false), byEDX},
			flagWriter{mn + " eAX, imm", all, "ac", rawForm(byte(k<<3|4), -1, true), byImm},
			flagWriter{mn + " r/m, imm", all, "ac", asmForm(mn + " {a}, {i}"), byImm})
	}
	for k, mn := range []string{"rol", "ror", "rcl", "rcr", "shl", "shr", "sal", "sar"} {
		shift := func(st *CPUState, s int, c uint32) {
			res, ok := st.refShift(k, st.Reg(EAX, s), c&0xff, s)
			intoEAX(st, s, res, ok)
		}
		if mn == "sal" { // /6, which the assembler spells /4
			ws = append(ws, flagWriter{"sal r/m, cl", all, "an", rawForm(0xd2, 0xf0, false), shift})
			continue
		}
		ws = append(ws,
			flagWriter{mn + " r/m, cl", all, "an", asmForm(mn + " {a}, cl"), shift},
			flagWriter{mn + " r/m, imm8", all, "an", asmForm(mn + " {a}, {i}"), shift})
	}
	for k, mn := range []string{"bt", "bts", "btr", "btc"} {
		bt := func(st *CPUState, s int, idx uint32) {
			res, ok := st.refBitTest(k, st.Reg(EAX, s), idx, s)
			intoEAX(st, s, res, ok)
		}
		ws = append(ws,
			flagWriter{mn + " r/m, r", wide, "ab", asmForm(mn + " {a}, {d}"),
				func(st *CPUState, s int, _ uint32) { bt(st, s, st.Reg(EDX, s)) }},
			flagWriter{mn + " r/m, imm8", wide, "an", asmForm(mn + " {a}, {i}"),
				func(st *CPUState, s int, c uint32) { bt(st, s, c&0xff) }})
	}
	for _, mn := range []string{"shld", "shrd"} {
		dbl := func(st *CPUState, s int, c uint32) {
			res, ok := st.refDblShift(mn == "shld", st.Reg(EAX, s), st.Reg(EDX, s), c&0xff, s)
			intoEAX(st, s, res, ok)
		}
		ws = append(ws,
			flagWriter{mn + " r/m, r, cl", wide, "abn", asmForm(mn + " {a}, {d}, cl"), dbl},
			flagWriter{mn + " r/m, r, imm8", wide, "abn", asmForm(mn + " {a}, {d}, {i}"), dbl})
	}
	inc := func(st *CPUState, s int, _ uint32) {
		v := st.Reg(EAX, s) + 1
		st.SetReg(EAX, s, v)
		st.refFlagsInc(v, s)
	}
	dec := func(st *CPUState, s int, _ uint32) {
		v := st.Reg(EAX, s) - 1
		st.SetReg(EAX, s, v)
		st.refFlagsDec(v, s)
	}
	test := func(st *CPUState, s int, c uint32) { st.refFlagsLogic(st.Reg(EAX, s)&c, s) }
	// cmpString compares the copies of EAX and EDX the string forms
	// read and steps the index registers by the operand size, down if
	// DF is set.
	cmpString := func(st *CPUState, s int, index ...int) {
		a, b := st.Reg(EAX, s), st.Reg(EDX, s)
		st.refFlagsSub(a, b, a-b, s, 0)
		step := uint32(s)
		if st.GetFlag(FlagDF) {
			step = -step
		}
		for _, r := range index {
			st.GPR[r] += step
		}
	}
	ws = append(ws,
		flagWriter{"inc r", all, "a", asmForm("inc {a}"), inc},
		flagWriter{"inc r/m", all, "a", rawForm(0xfe, 0xc0, false), inc},
		flagWriter{"dec r", all, "a", asmForm("dec {a}"), dec},
		flagWriter{"dec r/m", all, "a", rawForm(0xfe, 0xc8, false), dec},
		flagWriter{"neg", all, "a", asmForm("neg {a}"), func(st *CPUState, s int, _ uint32) {
			st.SetReg(EAX, s, st.refNeg(st.Reg(EAX, s), s))
		}},
		flagWriter{"test r/m, r", all, "ab", asmForm("test {a}, {d}"), func(st *CPUState, s int, _ uint32) {
			test(st, s, st.Reg(EDX, s))
		}},
		flagWriter{"test r/m, imm", all, "ac", asmForm("test {a}, {i}"), test},
		flagWriter{"test eAX, imm", all, "ac", rawForm(0xa8, -1, true), test},
		flagWriter{"mul", all, "ab", asmForm("mul {d}"), func(st *CPUState, s int, _ uint32) {
			st.refMul(st.Reg(EDX, s), s)
		}},
		flagWriter{"imul r/m", all, "ab", asmForm("imul {d}"), func(st *CPUState, s int, _ uint32) {
			st.refImul1(st.Reg(EDX, s), s)
		}},
		flagWriter{"imul r, r/m", wide, "ab", asmForm("imul {a}, {d}"), func(st *CPUState, s int, _ uint32) {
			st.refImul2(EAX, st.Reg(EAX, s), st.Reg(EDX, s), s)
		}},
		flagWriter{"imul r, r/m, imm", wide, "bc", asmForm("imul {a}, {d}, {i}"), func(st *CPUState, s int, c uint32) {
			st.refImul2(EAX, st.Reg(EDX, s), c, s)
		}},
		flagWriter{"cmpxchg r/m, r", all, "abc", asmForm("cmpxchg {d}, {c}"), func(st *CPUState, s int, _ uint32) {
			acc, dst := st.Reg(EAX, s), st.Reg(EDX, s)
			st.refFlagsSub(acc, dst, acc-dst, s, 0)
			st.SetFlag(FlagZF, acc == dst)
			if acc == dst {
				st.SetReg(EDX, s, st.Reg(ECX, s))
			} else {
				st.SetReg(EAX, s, dst)
			}
		}},
		flagWriter{"xadd r/m, r", all, "ab", asmForm("xadd {a}, {d}"), func(st *CPUState, s int, _ uint32) {
			dst, src := st.Reg(EAX, s), st.Reg(EDX, s)
			st.refFlagsAdd(dst, src, dst+src, s, 0)
			st.SetReg(EDX, s, dst)
			st.SetReg(EAX, s, dst+src)
		}},
		flagWriter{"cmps", all, "ab", rawForm(0xa6, -1, false), func(st *CPUState, s int, _ uint32) {
			cmpString(st, s, ESI, EDI)
		}},
		flagWriter{"scas", all, "ab", rawForm(0xae, -1, false), func(st *CPUState, s int, _ uint32) {
			cmpString(st, s, EDI)
		}},
	)
	return ws
}

// flagHarness steps one flag writer at a time on a flat 32-bit machine.
type flagHarness struct {
	env  *flatEnv
	st   *CPUState
	ip   *Interp
	code map[string][]byte
}

func newFlagHarness() *flagHarness {
	env := newFlatEnv(1 << 16)
	st := &CPUState{}
	return &flagHarness{env: env, st: st, ip: NewInterp(env, st, Intercepts{}), code: map[string][]byte{}}
}

// check runs w at size with EAX=a, EDX=b, ECX=c and EFLAGS=fl (plus the
// fixed bit) through the interpreter and through the reference, and
// describes the first difference in the whole CPUState.
func (h *flagHarness) check(w *flagWriter, size int, a, b, c, fl uint32) error {
	src := "bits 32\n" + w.asm(size, c)
	code, ok := h.code[src]
	if !ok {
		var err error
		if code, err = Assemble(src); err != nil {
			return fmt.Errorf("%s: %v", w.name, err)
		}
		if len(h.code) > 4096 {
			clear(h.code)
		}
		h.code[src] = code
	}
	copy(h.env.mem[0x1000:], code)
	binary.LittleEndian.PutUint32(h.env.mem[0x5000:], a)
	binary.LittleEndian.PutUint32(h.env.mem[0x6000:], b)
	st := h.st
	st.Reset()
	st.CR0 = CR0PE
	for i := range st.Seg {
		st.Seg[i] = Segment{Limit: 0xffffffff, Def32: true}
	}
	st.EIP = 0x1000
	st.GPR = [8]uint32{EAX: a, ECX: c, EDX: b, ESP: 0x8000, ESI: 0x5000, EDI: 0x6000}
	st.EFLAGS = fl | FlagsFixed
	want := *st
	w.ref(&want, size, c)
	want.EIP += uint32(len(code))
	if err := h.ip.Step(); err != nil {
		return fmt.Errorf("%s size %d: %v", w.name, size, err)
	}
	if *st == want {
		return nil
	}
	return fmt.Errorf("%s size %d (a=%#x b=%#x c=%#x eflags=%#x):\n got eflags %#x gpr %#x\nwant eflags %#x gpr %#x",
		w.name, size, a, b, c, fl|FlagsFixed, st.EFLAGS, st.GPR, want.EFLAGS, want.GPR)
}

// TestFlagWritersMatchReference checks every flag writer against the
// per-flag reference at every operand size: boundary operands, counts
// 0-33, and EFLAGS in with CF and the other flags (TF, IF and DF
// included) each set and clear.
func TestFlagWritersMatchReference(t *testing.T) {
	all := arithFlags | FlagTF | FlagIF | FlagDF
	h := newFlagHarness()
	failures := 0
	counts := []uint32{0x7f, 0x80, 0xff}
	for n := uint32(0); n <= 33; n++ {
		counts = append(counts, n)
	}
	for _, w := range flagWriters() {
		for _, size := range w.sizes {
			m := sizeMask(size)
			fill := uint32(0xa5a5a5a5) &^ m // the upper register bits must survive
			edges := []uint32{0, 1, 0xf, 0x10, signBit(size) - 1, signBit(size), m}
			values := func(operand byte) []uint32 {
				switch {
				case operand == 'c' && strings.IndexByte(w.reads, 'n') >= 0:
					return counts
				case strings.IndexByte(w.reads, operand) >= 0:
					return edges
				}
				return []uint32{0x5a5a5a5a & m}
			}
			for _, fl := range []uint32{0, FlagCF, all &^ FlagCF, all} {
				for _, a := range values('a') {
					for _, b := range values('b') {
						for _, c := range values('c') {
							if err := h.check(&w, size, a|fill, b|fill, c|fill, fl); err != nil {
								t.Error(err)
								if failures++; failures == 10 {
									t.Fatal("too many failures")
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzFlags checks a random flag writer at a random operand size on
// random operands and EFLAGS against the per-flag reference.
func FuzzFlags(f *testing.F) {
	ws := flagWriters()
	h := newFlagHarness()
	f.Add(uint16(0), uint8(2), uint32(0x7fffffff), uint32(1), uint32(0), uint32(0))
	f.Add(uint16(9), uint8(0), uint32(0x80), uint32(0x80), uint32(0x80), uint32(FlagCF|FlagDF))
	f.Add(uint16(33), uint8(1), uint32(0x8000), uint32(0), uint32(33), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, op uint16, size uint8, a, b, c, fl uint32) {
		w := &ws[int(op)%len(ws)]
		if err := h.check(w, w.sizes[int(size)%len(w.sizes)], a, b, c, fl); err != nil {
			t.Fatal(err)
		}
	})
}

// benchEFLAGS keeps BenchmarkALUFlags's stores live.
var benchEFLAGS uint32

// BenchmarkALUFlags times the five arithmetic flag writers on a spread
// of operands at every size, and a loop of flag-writing instructions
// through Step with the decode cache on.
func BenchmarkALUFlags(b *testing.B) {
	b.Run("helpers", func(b *testing.B) {
		st := &CPUState{EFLAGS: FlagsFixed}
		defer func() { benchEFLAGS = st.EFLAGS }()
		vals := [...]uint32{0, 1, 0x7f, 0x80, 0xffff, 0x7fffffff, 0x80000000, 0xffffffff}
		for i := 0; i < b.N; i++ {
			for _, s := range [...]int{1, 2, 4} {
				for j, d := range vals {
					v := vals[(j+3)%len(vals)]
					st.flagsAdd(d, v, d+v, s, 0)
					st.flagsSub(d, v, d-v, s, 1)
					st.flagsLogic(d&v, s)
					st.flagsInc(d+1, s)
					st.flagsDec(d-1, s)
				}
			}
		}
	})
	b.Run("steps", func(b *testing.B) {
		code := MustAssemble(`bits 32
org 0x1000
top:
	add eax, edx
	sub ecx, eax
	and edx, ecx
	inc ebx
	xor eax, ebx
	shl edx, 3
	dec esi
	cmp ecx, edx
	adc eax, 7
	jmp top`)
		env := newPagerEnv(1 << 16)
		copy(env.mem[0x1000:], code)
		st := &CPUState{}
		st.Reset()
		st.CR0 = CR0PE
		for i := range st.Seg {
			st.Seg[i] = Segment{Limit: 0xffffffff, Def32: true}
		}
		st.EIP = 0x1000
		ip := NewInterp(env, st, Intercepts{})
		ip.Cache = NewDecodeCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ip.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
