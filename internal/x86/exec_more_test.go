package x86

import "testing"

// Table-driven execution tests for the less-travelled instructions: the
// snippet runs to HLT and the named register is compared.
func TestExecInstructionTable(t *testing.T) {
	cases := []struct {
		name string
		src  string
		reg  int
		want uint32
	}{
		{"cmov-taken", "mov eax, 1\ncmp eax, 1\nmov ebx, 9\ncmove ecx, ebx\nhlt", ECX, 9},
		{"cmov-not-taken", "mov eax, 1\ncmp eax, 2\nmov ecx, 5\nmov ebx, 9\ncmove ecx, ebx\nhlt", ECX, 5},
		{"setcc", "mov eax, 3\ncmp eax, 3\nsete bl\nhlt", EBX, 1},
		{"setcc-false", "mov eax, 3\ncmp eax, 4\nmov ebx, 0xff\nsete bl\nhlt", EBX, 0xff00>>8 - 0xff + 0}, // bl=0
		{"bt-reg", "mov eax, 0x10\nmov ecx, 4\nbt eax, ecx\nmov ebx, 0\nadc ebx, 0\nhlt", EBX, 1},
		{"bts", "mov eax, 0\nbts eax, 3\nhlt", EAX, 8},
		{"btr", "mov eax, 0xff\nbtr eax, 0\nhlt", EAX, 0xfe},
		{"btc", "mov eax, 1\nbtc eax, 0\nbtc eax, 4\nhlt", EAX, 0x10},
		{"bt-imm", "mov eax, 0x80\nbt eax, 7\nmov ebx, 0\nadc ebx, 0\nhlt", EBX, 1},
		{"bsf", "mov eax, 0x40\nbsf ebx, eax\nhlt", EBX, 6},
		{"bsr", "mov eax, 0x41\nbsr ebx, eax\nhlt", EBX, 6},
		{"bswap", "mov eax, 0x11223344\nbswap eax\nhlt", EAX, 0x44332211},
		{"xadd", "mov eax, 10\nmov ebx, 3\nxadd eax, ebx\nhlt", EAX, 13},
		{"xadd-old", "mov eax, 10\nmov ebx, 3\nxadd eax, ebx\nhlt", EBX, 10},
		{"cmpxchg-eq", "mov eax, 7\nmov ebx, 7\nmov ecx, 42\ncmpxchg ebx, ecx\nhlt", EBX, 42},
		{"cmpxchg-ne", "mov eax, 1\nmov ebx, 7\nmov ecx, 42\ncmpxchg ebx, ecx\nhlt", EAX, 7},
		{"shld", "mov eax, 0x80000000\nmov ebx, 0x40000000\nshld eax, ebx, 2\nhlt", EAX, 1},
		{"shrd", "mov eax, 1\nmov ebx, 3\nshrd eax, ebx, 1\nhlt", EAX, 0x80000000},
		{"rol", "mov eax, 0x80000001\nrol eax, 4\nhlt", EAX, 0x18},
		{"ror", "mov eax, 0x18\nror eax, 4\nhlt", EAX, 0x80000001},
		{"neg", "mov eax, 5\nneg eax\nhlt", EAX, 0xfffffffb},
		{"not", "mov eax, 0x0f0f0f0f\nnot eax\nhlt", EAX, 0xf0f0f0f0},
		{"imul3", "mov ebx, 7\nimul eax, ebx, 6\nhlt", EAX, 42},
		{"imul-neg", "mov ebx, 0xffffffff\nimul eax, ebx, 5\nhlt", EAX, 0xfffffffb},
		{"idiv", "mov eax, 0xffffffd8\ncdq\nmov ebx, 5\nidiv ebx\nhlt", EAX, 0xfffffff8}, // -40/5 = -8
		{"cbw", "mov al, 0x80\ncbw\nhlt", EAX, 0xff80},
		{"cwde", "mov ax, 0x8000\ncwde\nhlt", EAX, 0xffff8000},
		{"leave", "mov ebp, 0x7000\nmov dword [0x7000], 0x1234\npush ebp\nmov ebp, esp\nleave\nhlt", EBP, 0x7000},
		{"pusha-popa", "mov eax, 1\nmov ebx, 2\npusha\nmov eax, 0\nmov ebx, 0\npopa\nadd eax, ebx\nhlt", EAX, 3},
		{"loop", "mov ecx, 4\nxor eax, eax\nl:\nadd eax, 2\nloop l\nhlt", EAX, 8},
		{"loopne", "mov ecx, 10\nxor eax, eax\nl:\ninc eax\ncmp eax, 3\nloopne l\nhlt", EAX, 3},
		{"jecxz", "xor ecx, ecx\nmov eax, 1\njecxz over\nmov eax, 2\nover:\nhlt", EAX, 1},
		{"xchg-acc", "mov eax, 1\nmov edx, 2\nxchg eax, edx\nhlt", EDX, 1},
		{"movsx-mem", "mov dword [0x2000], 0xff\nmovsx eax, byte [0x2000]\nhlt", EAX, 0xffffffff},
		{"test-clears-cf", "stc\ntest eax, eax\nmov ebx, 0\nadc ebx, 0\nhlt", EBX, 0},
		{"sbb", "mov eax, 5\nstc\nsbb eax, 2\nhlt", EAX, 2},
		{"adc", "mov eax, 5\nstc\nadc eax, 2\nhlt", EAX, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ip, _ := run32(t, tc.src, 300)
			if got := ip.St.GPR[tc.reg]; got != tc.want {
				t.Errorf("%s = %#x, want %#x", RegName(tc.reg), got, tc.want)
			}
		})
	}
}

func TestExecStringCompare(t *testing.T) {
	// REPE CMPSB finds the first difference.
	ip, _ := run32(t, `
	cld
	mov esi, s1
	mov edi, s2copy
	; copy s2 to ES region first (flat, same segment)
	mov ecx, 8
	mov esi, s2
	rep movsb
	mov esi, s1
	mov edi, s2copy
	mov ecx, 8
	repe cmpsb
	mov eax, ecx
	hlt
s1: db "abcdefgh"
s2: db "abcdXfgh"
s2copy: db 0,0,0,0,0,0,0,0`, 300)
	// Difference at index 4 (0-based): after comparing 5 bytes ECX = 3.
	if ip.St.GPR[EAX] != 3 {
		t.Errorf("ecx after repe cmpsb = %d, want 3", ip.St.GPR[EAX])
	}
}

func TestExecScasFindsByte(t *testing.T) {
	ip, _ := run32(t, `
	cld
	mov edi, hay
	mov ecx, 16
	mov al, 'x'
	repne scasb
	mov eax, edi
	hlt
hay: db "aaaaaxbbbbbbbbbb"`, 300)
	// EDI points one past the found 'x' (index 5).
	base := ip.St.GPR[EAX] - 6
	v, _ := ip.Env.MemRead(ip.St, base+5, 1, AccessRead)
	if byte(v) != 'x' {
		t.Errorf("scasb landed wrong: edi=%#x", ip.St.GPR[EAX])
	}
}

func TestExecFarCallRet(t *testing.T) {
	// Far call through a memory pointer and far return, flat segments.
	env := newFlatEnv(1 << 20)
	gdt := []byte{
		0, 0, 0, 0, 0, 0, 0, 0,
		0xff, 0xff, 0, 0, 0, 0x9a, 0xcf, 0,
	}
	copy(env.mem[0x4000:], gdt)
	main := MustAssemble(`bits 32
org 0x1000
	call ebx     ; near call through register first
	mov ecx, 1
	hlt`)
	fn := MustAssemble("bits 32\norg 0x5000\nmov edx, 0x77\nret")
	copy(env.mem[0x1000:], main)
	copy(env.mem[0x5000:], fn)
	st := &CPUState{}
	st.Reset()
	st.CR0 = CR0PE
	for i := range st.Seg {
		st.Seg[i] = Segment{Sel: 0x08, Base: 0, Limit: 0xffffffff, Def32: true}
	}
	st.GDTR = DescTable{Base: 0x4000, Limit: 0xff}
	st.EIP = 0x1000
	st.GPR[ESP] = 0x80000
	st.GPR[EBX] = 0x5000
	ip := NewInterp(env, st, Intercepts{})
	for i := 0; i < 50 && !st.Halted; i++ {
		if err := ip.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st.GPR[EDX] != 0x77 || st.GPR[ECX] != 1 {
		t.Errorf("edx=%#x ecx=%#x", st.GPR[EDX], st.GPR[ECX])
	}
}

// TestXaddSameRegister checks XADD's write order: SRC ← DEST, then
// DEST ← sum, so xadd eax, eax doubles EAX.
func TestXaddSameRegister(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want uint32
	}{
		{"mov eax, 5\nxadd eax, eax\nhlt", 10},
		{"mov eax, 0x1205\nxadd al, al\nhlt", 0x120a},
		{"mov eax, 0x12348001\nxadd ax, ax\nhlt", 0x12340002},
	} {
		ip, _ := run32(t, tc.src, 10)
		if got := ip.St.GPR[EAX]; got != tc.want {
			t.Errorf("%q: eax = %#x, want %#x", tc.src, got, tc.want)
		}
	}
}

// roEnv is a flat machine whose page at 0x7000 is read-only.
type roEnv struct{ *flatEnv }

func (e roEnv) MemWrite(st *CPUState, va uint32, size int, val uint32) error {
	if va>>12 == 7 {
		return PageFault(va, true, true, false)
	}
	return e.flatEnv.MemWrite(st, va, size, val)
}

// TestCmpxchgWritesDestinationOnBothPaths checks that CMPXCHG writes
// its destination whether or not the compare succeeds (SDM: DEST ←
// TEMP on failure), so a read-only destination faults either way and
// Step leaves the CPU state as it was.
func TestCmpxchgWritesDestinationOnBothPaths(t *testing.T) {
	code := MustAssemble("bits 32\norg 0x1000\ncmpxchg [0x7000], ecx")
	for _, acc := range []uint32{7, 8} { // equal, then unequal to [0x7000]
		env := roEnv{newFlatEnv(1 << 16)}
		copy(env.mem[0x1000:], code)
		env.mem[0x7000] = 7
		st := &CPUState{}
		st.Reset()
		st.CR0 = CR0PE
		for i := range st.Seg {
			st.Seg[i] = Segment{Limit: 0xffffffff, Def32: true}
		}
		st.EIP = 0x1000
		st.GPR[EAX], st.GPR[ECX] = acc, 42
		ip := NewInterp(env, st, Intercepts{})
		inst, err := ip.fetchDecode(st)
		if err != nil {
			t.Fatal(err)
		}
		before := *st
		err = ip.exec(inst)
		if e, ok := err.(*Exception); !ok || e.Vector != VecPF || e.CR2 != 0x7000 {
			t.Errorf("eax=%d: exec = %v, want #PF at 0x7000", acc, err)
		}
		// Through Step the fault rolls the accumulator back. With no
		// IDT the #PF escalates to a triple-fault exit, which is all
		// Step can return here.
		*st = before
		if _, ok := ip.Step().(*VMExit); !ok {
			t.Errorf("eax=%d: Step did not exit on the undeliverable #PF", acc)
		}
		if st.GPR[EAX] != acc || st.CR2 != 0x7000 {
			t.Errorf("eax=%d: after Step eax = %d, cr2 = %#x", acc, st.GPR[EAX], st.CR2)
		}
	}
	// A failed compare loads the accumulator and leaves a writable
	// destination as it was.
	ip, env := run32(t, "mov dword [0x7000], 7\nmov eax, 8\nmov ecx, 42\ncmpxchg [0x7000], ecx\nhlt", 10)
	if ip.St.GPR[EAX] != 7 || env.mem[0x7000] != 7 || ip.St.GetFlag(FlagZF) {
		t.Errorf("failed cmpxchg: eax = %d, [m] = %d, zf = %v", ip.St.GPR[EAX], env.mem[0x7000], ip.St.GetFlag(FlagZF))
	}
}

// TestBitTestOffsets checks where BT and friends find their bit in
// memory: an immediate offset is taken modulo the operand size, a
// register offset is signed and may address beyond the operand.
func TestBitTestOffsets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		wantCF bool
		byteAt uint32 // the byte at 0x2000+byteAt must read want afterwards
		want   byte
	}{
		{"bt imm mod 32", "mov byte [0x2001], 1\nbt dword [0x2000], 40", true, 5, 0},
		{"bt imm ignores far byte", "mov byte [0x2005], 1\nbt dword [0x2000], 40", false, 5, 1},
		{"bt imm mod 16", "mov byte [0x2000], 0x10\nbt word [0x2000], 20", true, 0, 0x10},
		{"bts imm mod 32", "bts dword [0x2000], 40", false, 1, 1},
		{"btr imm mod 32", "mov byte [0x2001], 3\nbtr dword [0x2000], 40", true, 1, 2},
		{"btc imm mod 32", "btc dword [0x2000], 41", false, 1, 2},
		{"bt reg beyond operand", "mov byte [0x2005], 1\nmov ecx, 40\nbt dword [0x2000], ecx", true, 5, 1},
		{"bts reg beyond operand", "mov ecx, 40\nbts dword [0x2000], ecx", false, 5, 1},
		{"bt reg negative", "mov byte [0x1fff], 0x80\nmov ecx, -1\nbt dword [0x2000], ecx", true, 0, 0},
		{"bt reg16 negative", "mov byte [0x1fff], 0x80\nmov cx, 0xffff\nbt word [0x2000], cx", true, 0, 0},
	} {
		ip, env := run32(t, tc.src+"\nhlt", 10)
		if got := ip.St.GetFlag(FlagCF); got != tc.wantCF {
			t.Errorf("%s: CF = %v, want %v", tc.name, got, tc.wantCF)
		}
		if got := env.mem[0x2000+tc.byteAt]; got != tc.want {
			t.Errorf("%s: byte %#x = %#x, want %#x", tc.name, 0x2000+tc.byteAt, got, tc.want)
		}
	}
}
