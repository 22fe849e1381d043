package x86

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// stepBlockChunk is code assembled at offset eip of the code segment
// and loaded at the segment's base plus eip.
type stepBlockChunk struct {
	eip uint32
	src string
}

// stepBlockCase is a program for TestStepBlockMatchesStep. run is the
// number of instructions from the entry, in execution order, that one
// StepBlock may retire: the first, and each following one that lies on
// the entry's page and can join a run where it executes.
type stepBlockCase struct {
	name   string
	bits   int
	csBase uint32
	entry  uint32
	fill   byte // every byte of the entry's page that no chunk covers
	chunks []stepBlockChunk
	run    uint64
}

func stepBlockCases() []stepBlockCase {
	incs := func(reg string, n int) string { return strings.Repeat("inc "+reg+"\n", n) }
	return []stepBlockCase{
		{name: "straight line to a non-fusible instruction", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov eax, 1\nadd eax, 2\ninc ebx\nshl eax, 1\nmov [0x8000], eax\nhlt"},
		}, run: 5},
		{name: "backward on-page loop", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov ecx, 5\nxor eax, eax\nl: add eax, ecx\ndec ecx\njnz l\npush eax\nhlt"},
		}, run: 2 + 5*3},
		{name: "taken jump to another page", bits: 32, entry: 0x1ff0, chunks: []stepBlockChunk{
			{0x1ff0, "inc eax\ninc eax\njmp 0x2100"},
			{0x2100, "inc ebx\nhlt"},
		}, run: 3},
		{name: "fall-through to the page end", bits: 32, entry: 0x1ffa, chunks: []stepBlockChunk{
			{0x1ffa, incs("eax", 6) + incs("ebx", 4) + "hlt"},
		}, run: 6},
		{name: "instruction spilling across the page end", bits: 32, entry: 0x1ff9, chunks: []stepBlockChunk{
			{0x1ff9, incs("eax", 3) + "mov ebx, 0x12345678\ninc ecx\nhlt"},
		}, run: 3},
		// JMP SHORT 0x1f90 straddles the page end. Its decode read the
		// next page through the environment, outside the fetch charge,
		// so it is stepped even though its target is on the entry page.
		{name: "spilling taken branch back onto the entry page", bits: 32, entry: 0x1fff, chunks: []stepBlockChunk{
			{0x1f90, "inc eax\ninc eax\nhlt"},
			{0x1fff, "db 0xeb, 0x8f"},
		}, run: 1},
		{name: "STI inside a run", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "cli\ninc eax\nsti\ninc eax\ninc eax\nmov [0x8000], eax\nhlt"},
		}, run: 6},
		// The linear page ends at EIP 0xdd0, not at an EIP page
		// boundary. The rest of the page holds INC CX, so a run that
		// kept going on the fetched page's bytes would count CX.
		{name: "16-bit code with a non-zero CS base", bits: 16, csBase: 0x1230, entry: 0xdc0, fill: 0x41, chunks: []stepBlockChunk{
			{0xdc0, incs("ax", 16) + incs("bx", 16) + "hlt"},
		}, run: 16},
		{name: "loads, stores and read-modify-writes", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov esi, 0x8000\nmov eax, [esi]\nadd eax, 5\nmov [esi+4], eax\nadd [esi+8], eax\n" +
				"inc dword [esi+12]\ncmp [esi], eax\nmovzx ebx, byte [esi+4]\nmovsx ecx, word [esi+6]\n" +
				"mov byte [esi+16], 0x7f\nxor [esi+17], bl\ntest [esi], ecx\nsub dword [esi+20], 3\n" +
				"cmp byte [esi+4], 9\nhlt"},
			{0x8000, "dd 0x11223344, 0x8899aabb, 7, 0xffffffff, 0x5a, 2"},
		}, run: 14},
		{name: "16-bit loads and stores through a non-zero DS base", bits: 16, csBase: 0x1230, entry: 0x100, chunks: []stepBlockChunk{
			{0x100, "mov bx, 0x800\nmov ax, [bx]\ninc ax\nmov [bx+2], ax\nadd [bx+4], ax\nhlt"},
			{0x800, "dw 0x1234, 0, 0x4321"},
		}, run: 5},
		// The variable sits on the code page, next to the loop's code
		// but on no decoded byte, so the store joins the run.
		{name: "a store next to the run's own code", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov ecx, 3\nl: mov ebx, [v]\nadd ebx, 2\nmov [v], ebx\ndec ecx\njnz l\nhlt\nv: dd 40"},
		}, run: 1 + 3*5},
		// The store patches MOV EBX's immediate, which the run decoded:
		// it would move the page's write generation, so it ends the run.
		// Fused anyway, the loop would come back to a stale decode.
		{name: "a store over the run's own code", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov ecx, 3\nl: mov ebx, 5\nadd eax, ebx\nmov byte [l+1], 6\ndec ecx\njnz l\nhlt"},
		}, run: 3},
		// Its read half is free; its write half is not.
		{name: "a read-modify-write over the run's own code", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov ecx, 3\nl: mov ebx, 5\nadd eax, ebx\nadd byte [l+1], 1\ndec ecx\njnz l\nhlt"},
		}, run: 3},
		// The load ends exactly at the page end; the store crosses it.
		{name: "a page-crossing access", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "inc eax\nmov ebx, [0xaffc]\ninc ecx\nmov [0xaffd], ebx\ninc edx\nhlt"},
		}, run: 3},
		{name: "a load from a declined data page", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "inc eax\nmov ebx, [0x8000]\nadd ebx, [0x9008]\ninc ecx\nhlt"},
		}, run: 2},
		{name: "a store to a declined data page", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "inc eax\nmov [0x8004], eax\nmov [0x9010], eax\ninc ecx\nhlt"},
		}, run: 2},
		{name: "a load first is single-stepped", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov eax, [0x8000]\ninc eax\ninc eax\nhlt"},
		}, run: 1},
		{name: "DIV by zero", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov eax, 100\nxor edx, edx\nxor ebx, ebx\ndiv ebx\nhlt"},
		}, run: 3},
		// The high half equals the divisor: the quotient does not fit.
		{name: "DIV that overflows", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "xor eax, eax\nmov edx, 7\nmov ebx, 7\ndiv ebx\nhlt"},
		}, run: 3},
		{name: "byte DIV that overflows", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov ax, 0x0700\nmov bl, 7\ndiv bl\nhlt"},
		}, run: 2},
		{name: "DIV with valid divisors", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "xor eax, eax\nmov edx, 6\nmov ebx, 7\ndiv ebx\ninc eax\nmov ax, 0x0605\nmov bl, 7\ndiv bl\n" +
				"mov dx, 3\nmov bx, 4\ndiv bx\ninc ecx\nhlt"},
		}, run: 12},
		{name: "MUL", bits: 32, entry: 0x1000, chunks: []stepBlockChunk{
			{0x1000, "mov eax, 3\nmov ebx, 5\nmul ebx\ninc eax\nmul bl\nimul ecx\ninc ecx\nhlt"},
		}, run: 7},
	}
}

// declinedPage is the page the pager of newStepBlockMachine declines,
// as it declines MMIO-backed pages: no access to it is free.
const declinedPage = 9

// newStepBlockMachine loads tc into a fresh pagerEnv whose ExecPage
// charges charge cycles, and returns an interpreter at its entry, with
// the decode cache attached.
func newStepBlockMachine(t *testing.T, tc stepBlockCase, charge uint64) (*Interp, *pagerEnv) {
	t.Helper()
	env := newPagerEnv(1 << 16)
	env.charge = charge
	env.declined[declinedPage] = true
	page := (tc.csBase + tc.entry) &^ 0xfff
	for i := range 4096 {
		env.mem[page+uint32(i)] = tc.fill
	}
	for _, c := range tc.chunks {
		code, err := Assemble(fmt.Sprintf("bits %d\norg %#x\n%s", tc.bits, c.eip, c.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		env.write(tc.csBase+c.eip, code)
	}
	st := &CPUState{}
	st.Reset()
	def32 := tc.bits == 32
	if def32 {
		st.CR0 |= CR0PE
	}
	for i := range st.Seg {
		st.Seg[i] = Segment{Base: tc.csBase, Limit: 0xffff, Def32: def32}
	}
	if def32 {
		st.Seg[CS].Limit = 0xffffffff
	}
	st.Seg[CS].Sel = uint16(tc.csBase >> 4)
	st.EIP = tc.entry
	st.GPR[ESP] = 0x7000
	ip := NewInterp(env, st, Intercepts{})
	ip.Cache = NewDecodeCache()
	return ip, env
}

// twinStep is the stepped twin after one more step: its CPU state and
// memory, and the ExtraCycles the step added.
type twinStep struct {
	st    CPUState
	mem   []byte
	extra uint64
}

// stepTwin steps a copy of tc without the decode cache n times and
// returns what each step left.
func stepTwin(t *testing.T, tc stepBlockCase, charge, n uint64) []twinStep {
	t.Helper()
	ip, env := newStepBlockMachine(t, tc, charge)
	ip.Cache = nil
	steps := make([]twinStep, n)
	for i := range steps {
		before := ip.ExtraCycles
		if err := ip.Step(); err != nil {
			t.Fatalf("%s: step %d: %v", tc.name, i, err)
		}
		steps[i] = twinStep{st: *ip.St, mem: bytes.Clone(env.mem), extra: ip.ExtraCycles - before}
	}
	return steps
}

// fusedCount is how many of the run's steps one StepBlock retires: the
// first always, then each that starts inside the window. Instruction i
// starts charge + Σ(instCost + extra) over the instructions before it.
func fusedCount(steps []twinStep, window, charge, instCost uint64) uint64 {
	k, start := uint64(1), charge+instCost+steps[0].extra
	for k < uint64(len(steps)) && start < window {
		start += instCost + steps[k].extra
		k++
	}
	return k
}

// TestStepBlockMatchesStep runs one StepBlock from the entry of each
// case at every window up to past the case's run, at base instruction
// costs 1 and 3, with and without a fetch charge. It retires the k
// instructions of the run that start inside the window, by the start
// times the stepped twin measures (fusedCount), after exactly one fetch
// translation, and leaves the CPU state, ExtraCycles and memory that k
// calls to Step leave on a twin without the decode cache.
func TestStepBlockMatchesStep(t *testing.T) {
	for _, tc := range stepBlockCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, ic := range []uint64{1, 3} {
				for _, charge := range []uint64{0, 5} {
					steps := stepTwin(t, tc, charge, tc.run)
					end := charge + ic
					for _, s := range steps {
						end += ic + s.extra
					}
					for window := uint64(1); window <= end; window++ {
						label := fmt.Sprintf("ic=%d charge=%d window=%d", ic, charge, window)
						fused, env := newStepBlockMachine(t, tc, charge)
						if err := fused.StepBlock(window, ic); err != nil {
							t.Fatalf("%s: StepBlock: %v", label, err)
						}
						if env.calls != 1 {
							t.Errorf("%s: %d fetch translations, want 1", label, env.calls)
						}
						k := fusedCount(steps, window, charge, ic)
						if fused.InstRet != k {
							t.Fatalf("%s: retired %d instructions, want %d", label, fused.InstRet, k)
						}
						var wantFused uint64 // a run of one is not counted
						if k > 1 {
							wantFused = k
						}
						if fused.Cache.SB.Fused != wantFused {
							t.Errorf("%s: %d fused, want %d", label, fused.Cache.SB.Fused, wantFused)
						}
						twin := steps[k-1]
						if *fused.St != twin.st {
							t.Fatalf("%s: state after one StepBlock differs from %d steps:\n fused   %s\n stepped %s",
								label, k, fused.St.String(), twin.st.String())
						}
						var extra uint64
						for _, s := range steps[:k] {
							extra += s.extra
						}
						if fused.ExtraCycles != extra {
							t.Errorf("%s: %d extra cycles, want %d", label, fused.ExtraCycles, extra)
						}
						if !bytes.Equal(env.mem, twin.mem) {
							t.Fatalf("%s: memory after one StepBlock differs from %d steps", label, k)
						}
					}
				}
			}
		})
	}
}

// fuzzInst is an instruction FuzzStepBlockMatchesStep may place, with
// what its oracle needs to decide whether the instruction can join a
// run: its kind and, for the memory kinds, the one access it makes. In
// src and addr, patchable stands for the address of the MOV EDI, imm32
// every program starts with; patching stores write its immediate.
type fuzzInst struct {
	src   string
	kind  fuseClass
	addr  uint32 // of the access, or its offset from patchable
	size  int
	patch bool
}

const patchable = "PATCHABLE"

var fuzzInsts = []fuzzInst{
	{src: "inc eax", kind: fuseAlways},
	{src: "dec ecx", kind: fuseAlways},
	{src: "add eax, ebx", kind: fuseAlways},
	{src: "mov ebx, 7", kind: fuseAlways},
	{src: "shl eax, 1", kind: fuseAlways},
	{src: "xor edx, edx", kind: fuseAlways},
	{src: "mov dl, 3", kind: fuseAlways},
	{src: "mul ebx", kind: fuseAlways},
	{src: "imul cl", kind: fuseAlways},
	{src: "jnz " + patchable, kind: fuseAlways},
	{src: "mov eax, [0x8010]", kind: fuseLoad, addr: 0x8010, size: 4},
	{src: "add ebx, [0x8020]", kind: fuseLoad, addr: 0x8020, size: 4},
	{src: "movzx ecx, byte [0x8031]", kind: fuseLoad, addr: 0x8031, size: 1},
	{src: "cmp [0x8040], eax", kind: fuseLoad, addr: 0x8040, size: 4},
	{src: "mov eax, [0x8ffe]", kind: fuseLoad, addr: 0x8ffe, size: 4},
	{src: "add eax, [0x9010]", kind: fuseLoad, addr: 0x9010, size: 4},
	{src: "mov edx, [" + patchable + "]", kind: fuseLoad, size: 4, patch: true},
	{src: "mov [0x8010], eax", kind: fuseStore, addr: 0x8010, size: 4},
	{src: "mov byte [0x8ffd], 5", kind: fuseStore, addr: 0x8ffd, size: 1},
	{src: "mov [0x8fff], ax", kind: fuseStore, addr: 0x8fff, size: 2},
	{src: "mov [0x9020], ebx", kind: fuseStore, addr: 0x9020, size: 4},
	{src: "mov byte [" + patchable + "+2], al", kind: fuseStore, addr: 2, size: 1, patch: true},
	{src: "add [0x8020], eax", kind: fuseRMW, addr: 0x8020, size: 4},
	{src: "inc dword [0x8030]", kind: fuseRMW, addr: 0x8030, size: 4},
	{src: "sub byte [0x8031], 3", kind: fuseRMW, addr: 0x8031, size: 1},
	{src: "xor [0x8ffd], eax", kind: fuseRMW, addr: 0x8ffd, size: 4},
	{src: "add byte [" + patchable + "+3], 1", kind: fuseRMW, addr: 3, size: 1, patch: true},
	{src: "div ebx", kind: fuseDiv, size: 4},
	{src: "div bl", kind: fuseDiv, size: 1},
	{src: "push eax", kind: fuseNever},
	{src: "hlt", kind: fuseNever},
}

// fuzzJoins is the fuzz target's oracle: whether instruction f, about
// to run on the stepped twin, can join a fused run. An access joins
// when the pager's FreeAccess, which follows hw's contract, admits it;
// a DIV when the dividend's high half is below the divisor.
func fuzzJoins(f fuzzInst, patchAt uint32, env *pagerEnv, st *CPUState) bool {
	addr := f.addr
	if f.patch {
		addr += patchAt
	}
	switch f.kind {
	case fuseAlways:
		return true
	case fuseLoad:
		return env.FreeAccess(st, addr, f.size, false)
	case fuseStore:
		return env.FreeAccess(st, addr, f.size, true)
	case fuseRMW:
		return env.FreeAccess(st, addr, f.size, false) && env.FreeAccess(st, addr, f.size, true)
	case fuseDiv:
		if f.size == 1 {
			return st.GPR[EAX]>>8&0xff < st.GPR[EBX]&0xff
		}
		return st.GPR[EDX] < st.GPR[EBX]
	}
	return false
}

// FuzzStepBlockMatchesStep draws a program of fuzzInsts, a base cost, a
// fetch charge, a window, the registers and where the program sits on
// its page, and checks one StepBlock against a twin that steps with the
// decode cache attached, so that its code map is the fused run's. The
// oracle walks the twin: after the first instruction, which always
// runs, each instruction joins while it starts inside the window, lies
// on the entry's page and fuzzJoins admits it, and a run goes on only
// from a fuseAlways first instruction. StepBlock must retire that many
// instructions after one fetch translation and leave the twin's state,
// ExtraCycles and memory, and return the error the twin's first step
// returned.
func FuzzStepBlockMatchesStep(f *testing.F) {
	seed := func(ic, charge byte, window uint16, layout, eax, ebx, ecx, edx byte, insts ...string) []byte {
		b := []byte{ic, charge, byte(window), byte(window >> 8), layout, eax, ebx, ecx, edx}
		for _, src := range insts {
			for i, fi := range fuzzInsts {
				if fi.src == src {
					b = append(b, byte(i))
				}
			}
		}
		return b
	}
	for _, s := range [][]byte{
		seed(0, 0, 200, 1, 1, 7, 3, 0, "inc eax", "mov eax, [0x8010]", "add [0x8020], eax", "inc dword [0x8030]", "mov [0x8010], eax", "cmp [0x8040], eax", "hlt"),
		seed(2, 5, 300, 1, 1, 7, 3, 6, "mul ebx", "div ebx", "inc eax", "div bl", "imul cl", "dec ecx", "jnz "+patchable),
		seed(0, 0, 300, 1, 9, 0, 2, 0, "inc eax", "div ebx", "inc eax"),
		seed(0, 0, 300, 1, 9, 7, 2, 7, "inc eax", "div ebx", "inc eax"),
		seed(1, 3, 400, 0, 1, 7, 3, 0, "add eax, ebx", "mov byte ["+patchable+"+2], al", "dec ecx", "jnz "+patchable),
		seed(1, 3, 400, 0, 1, 7, 3, 0, "add eax, ebx", "add byte ["+patchable+"+3], 1", "dec ecx", "jnz "+patchable),
		seed(1, 3, 400, 1, 1, 7, 3, 0, "add eax, ebx", "mov byte ["+patchable+"+2], al", "dec ecx", "jnz "+patchable),
		seed(1, 3, 400, 1, 1, 7, 3, 0, "add eax, ebx", "add byte ["+patchable+"+3], 1", "dec ecx", "jnz "+patchable),
		seed(0, 0, 100, 1, 1, 7, 3, 0, "inc eax", "mov eax, [0x8ffe]", "mov [0x8fff], ax", "xor [0x8ffd], eax", "mov byte [0x8ffd], 5"),
		seed(0, 0, 100, 1, 1, 7, 3, 0, "inc eax", "add eax, [0x9010]", "mov [0x9020], ebx"),
		seed(0, 2, 80, 0xff, 1, 7, 3, 0, "inc eax", "mov edx, ["+patchable+"]", "inc eax", "inc eax", "inc eax", "inc eax", "mul ebx", "inc eax"),
		seed(3, 0, 60, 1, 0, 0, 0, 0, "div ebx", "inc eax"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [9]byte
		copy(b[:], data)
		ic, charge := 1+uint64(b[0]%4), uint64(b[1]%24)
		window := 1 + (uint64(b[2])|uint64(b[3])<<8)%512
		patchAt := uint32(0x1100)
		if b[4]&2 != 0 {
			patchAt = 0x1f00 + uint32(b[4]>>2)*3 // near the page end
		}
		entry := patchAt
		if b[4]&1 != 0 {
			entry += 5 // past the MOV EDI
		}
		insts := []fuzzInst{{src: "mov edi, 0x11223344", kind: fuseAlways}}
		for _, c := range data[min(len(data), 9):min(len(data), 49)] {
			insts = append(insts, fuzzInsts[int(c)%len(fuzzInsts)])
		}
		insts = append(insts, fuzzInst{src: "hlt", kind: fuseNever})
		// at holds each instruction by its address, with its length.
		type placed struct {
			fuzzInst
			n uint32
		}
		at := make(map[uint32]placed, len(insts))
		var src strings.Builder
		addr := patchAt
		for _, fi := range insts {
			line := strings.ReplaceAll(fi.src, patchable, fmt.Sprintf("%#x", patchAt))
			code, err := Assemble(fmt.Sprintf("bits 32\norg %#x\n%s", addr, line))
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			at[addr] = placed{fi, uint32(len(code))}
			addr += uint32(len(code))
			src.WriteString(line + "\n")
		}
		// inPage reports whether the instruction at addr lies on the
		// entry's page.
		inPage := func(addr uint32) bool {
			p, ok := at[addr]
			return ok && addr>>12 == entry>>12 && addr&0xfff+p.n <= 0x1000
		}
		tc := stepBlockCase{name: "fuzz", bits: 32, entry: entry, chunks: []stepBlockChunk{{patchAt, src.String()}}}
		machine := func() (*Interp, *pagerEnv) {
			ip, env := newStepBlockMachine(t, tc, charge)
			for a := 0x8000; a < 0x9000; a++ {
				env.mem[a] = byte(a * 7)
			}
			ip.St.GPR[EAX] = uint32(b[5]) * 0x01010101
			ip.St.GPR[EBX] = uint32(b[6] % 24)
			ip.St.GPR[ECX] = uint32(b[7] % 8)
			ip.St.GPR[EDX] = uint32(b[8] % 24)
			return ip, env
		}
		fused, env := machine()
		ferr := fused.StepBlock(window, ic)

		twin, tenv := machine()
		first := at[twin.St.EIP]
		before := twin.ExtraCycles
		terr := twin.Step()
		k, start := uint64(1), charge+ic+twin.ExtraCycles-before
		if first.kind == fuseAlways && inPage(entry) {
			for start < window {
				next := at[twin.St.EIP]
				if !inPage(twin.St.EIP) || !fuzzJoins(next.fuzzInst, patchAt, tenv, twin.St) {
					break
				}
				before := twin.ExtraCycles
				if err := twin.Step(); err != nil {
					t.Fatalf("twin step %d (%q): %v", k, next.src, err)
				}
				start += ic + twin.ExtraCycles - before
				k++
			}
		}

		if fmt.Sprint(ferr) != fmt.Sprint(terr) {
			t.Fatalf("StepBlock returned %v, the twin's first step %v", ferr, terr)
		}
		if env.calls != 1 {
			t.Errorf("%d fetch translations, want 1", env.calls)
		}
		if fused.InstRet != k {
			t.Fatalf("retired %d instructions, want %d (window %d, ic %d, charge %d)\n%s",
				fused.InstRet, k, window, ic, charge, src.String())
		}
		if *fused.St != *twin.St {
			t.Fatalf("state after one StepBlock differs from %d steps:\n fused   %s\n stepped %s\n%s",
				k, fused.St.String(), twin.St.String(), src.String())
		}
		if fused.ExtraCycles != twin.ExtraCycles {
			t.Errorf("%d extra cycles, want %d", fused.ExtraCycles, twin.ExtraCycles)
		}
		if !bytes.Equal(env.mem, tenv.mem) {
			t.Fatalf("memory after one StepBlock differs from %d steps\n%s", k, src.String())
		}
	})
}
