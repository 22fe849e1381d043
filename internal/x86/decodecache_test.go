package x86

import "testing"

// pagerEnv extends flatEnv with the ExecPager fast path: identity
// translation, a write generation and a code map per page that follow
// hw.Memory's contract, a way to decline pages (as MMIO-backed pages
// are declined), a fixed charge per fetch translation, as a TLB miss
// would charge, and the FreeAccess query under the same contract.
type pagerEnv struct {
	*flatEnv
	gen      []uint64
	code     []pagerCode
	declined map[uint32]bool
	charge   uint64
	calls    int
}

// pagerCode is one page's code map: a flag per byte.
type pagerCode [4096]bool

func (c *pagerCode) Mark(off, n int) {
	for i := off; i < off+n; i++ {
		c[i] = true
	}
}

func newPagerEnv(size int) *pagerEnv {
	pages := (size + 4095) / 4096
	return &pagerEnv{
		flatEnv:  newFlatEnv(size),
		gen:      make([]uint64, pages),
		code:     make([]pagerCode, pages),
		declined: make(map[uint32]bool),
	}
}

// stored moves the generation of each page whose marked code the n
// bytes stored at addr overlap, and clears that page's marks, as
// hw.Memory does.
func (e *pagerEnv) stored(addr uint32, n int) {
	for a := addr; a < addr+uint32(n); a++ {
		if p := a >> 12; e.code[p][a&0xfff] {
			e.gen[p]++
			e.code[p] = pagerCode{}
		}
	}
}

func (e *pagerEnv) MemWrite(st *CPUState, va uint32, size int, val uint32) error {
	if err := e.flatEnv.MemWrite(st, va, size, val); err != nil {
		return err
	}
	e.stored(va, size)
	return nil
}

// write patches memory directly (the DMA/VMM analogue), with the
// generation contract of every other store.
func (e *pagerEnv) write(addr uint32, b []byte) {
	copy(e.mem[addr:], b)
	e.stored(addr, len(b))
}

func (e *pagerEnv) ExecPage(st *CPUState, va uint32) ([]byte, CodeMap, uint64, uint64, uint64, error) {
	e.calls++
	page := va >> 12
	base := int(page) << 12
	if base+4096 > len(e.mem) {
		return nil, nil, 0, 0, 0, PageFault(va, false, false, false)
	}
	if e.declined[page] {
		return nil, nil, 0, 0, 0, nil
	}
	return e.mem[base : base+4096], &e.code[page], uint64(page), e.gen[page], e.charge, nil
}

// FreeAccess implements ExecPager as hw.Memory and the guest front end
// would: an access is free when it stays inside one page of memory
// that the pager does not decline and, for a write, overlaps no marked
// code, so that it cannot move a generation.
func (e *pagerEnv) FreeAccess(st *CPUState, va uint32, n int, write bool) bool {
	page := va >> 12
	if va&0xfff+uint32(n) > 4096 || int(va)+n > len(e.mem) || e.declined[page] {
		return false
	}
	for a := va; write && a < va+uint32(n); a++ {
		if e.code[page][a&0xfff] {
			return false
		}
	}
	return true
}

// runCached assembles 32-bit code at org, loads it, and returns an
// interpreter with the decode cache attached (and its env).
func runCached(t *testing.T, src string, org uint32) (*Interp, *pagerEnv) {
	t.Helper()
	code := MustAssemble("bits 32\norg 0x1000\n" + src)
	env := newPagerEnv(1 << 20)
	env.write(org, code)
	st := &CPUState{}
	st.Reset()
	st.CR0 |= CR0PE
	st.Seg[CS] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
	st.Seg[DS] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
	st.Seg[SS] = Segment{Base: 0, Limit: 0xffffffff, Def32: true}
	st.EIP = org
	st.GPR[ESP] = 0x8000
	ip := NewInterp(env, st, Intercepts{})
	ip.Cache = NewDecodeCache()
	return ip, env
}

func stepN(t *testing.T, ip *Interp, n int) {
	t.Helper()
	for i := 0; i < n && !ip.St.Halted; i++ {
		if err := ip.Step(); err != nil {
			t.Fatalf("step %d: %v (eip=%#x)", i, err, ip.St.EIP)
		}
	}
}

// TestDecodeCacheMatchesSlowPath runs the same loop-heavy program with
// the cache attached and detached and requires identical final state and
// retired-instruction counts.
func TestDecodeCacheMatchesSlowPath(t *testing.T) {
	src := `
	mov ecx, 50
	mov eax, 0
loop:
	add eax, ecx
	dec ecx
	jnz loop
	hlt`
	fast, _ := runCached(t, src, 0x1000)
	stepN(t, fast, 1000)
	slow, _ := runCached(t, src, 0x1000)
	slow.Cache = nil
	stepN(t, slow, 1000)
	if !fast.St.Halted || !slow.St.Halted {
		t.Fatalf("halted: fast=%v slow=%v", fast.St.Halted, slow.St.Halted)
	}
	if fast.InstRet != slow.InstRet {
		t.Errorf("InstRet: cached %d vs uncached %d", fast.InstRet, slow.InstRet)
	}
	if *fast.St != *slow.St {
		t.Errorf("final state differs:\n cached   %s\n uncached %s", fast.St.String(), slow.St.String())
	}
	if want := uint32(50 * 51 / 2); fast.St.GPR[EAX] != want {
		t.Errorf("eax = %d, want %d", fast.St.GPR[EAX], want)
	}
}

// TestDecodeCacheStaleGeneration pins the staleness contract: while the
// page's write generation is unchanged, hits are served without looking
// at the bytes, and a store elsewhere on the page leaves the generation
// and every decode alone. A store to an instruction's bytes moves the
// generation; the cache then drops the page's decodes once and
// re-decodes.
func TestDecodeCacheStaleGeneration(t *testing.T) {
	ip, env := runCached(t, "mov eax, 0x11111111\nhlt", 0x1000)
	stepN(t, ip, 1)
	if ip.St.GPR[EAX] != 0x11111111 {
		t.Fatalf("eax = %#x", ip.St.GPR[EAX])
	}
	// Patch bytes behind the cache's back, with no generation move: the
	// cache must serve the cached decode without re-reading the bytes.
	// (The real memory system can't do this — every store to cached
	// code moves the generation — so this asserts that hits really go
	// unverified.)
	copy(env.mem[0x1001:], []byte{0x33, 0x33, 0x33, 0x33})
	ip.St.EIP = 0x1000
	stepN(t, ip, 1)
	if ip.St.GPR[EAX] != 0x11111111 {
		t.Errorf("an unchanged generation did not serve a hit: eax = %#x", ip.St.GPR[EAX])
	}
	// A data store elsewhere on the page, and one to the byte just after
	// the cached instruction (the HLT, not decoded yet), keep the
	// decode: the generation stays and the cached MOV still runs.
	env.write(0x1800, []byte{0xff})
	if err := ip.Env.MemWrite(ip.St, 0x1005, 1, 0xf4); err != nil {
		t.Fatal(err)
	}
	ip.St.EIP = 0x1000
	stepN(t, ip, 1)
	if ip.St.GPR[EAX] != 0x11111111 || ip.Cache.Dropped != 0 {
		t.Errorf("a data store dropped the decode: eax = %#x, %d pages dropped", ip.St.GPR[EAX], ip.Cache.Dropped)
	}
	// Patch the immediate in place: the store overlaps the cached MOV,
	// so the page is dropped once and the MOV re-decoded.
	env.write(0x1001, []byte{0x22, 0x22, 0x22, 0x22})
	ip.St.EIP = 0x1000
	stepN(t, ip, 2)
	if ip.St.GPR[EAX] != 0x22222222 {
		t.Errorf("after patch: eax = %#x, want 0x22222222 (stale decode executed)", ip.St.GPR[EAX])
	}
	if ip.Cache.Dropped != 1 {
		t.Errorf("%d pages dropped, want 1", ip.Cache.Dropped)
	}
}

// TestDecodeCachePageSpill places an instruction across a page boundary;
// the fast path must fall back and still execute it correctly.
func TestDecodeCachePageSpill(t *testing.T) {
	// mov eax, imm32 is 5 bytes; at 0x1ffd it ends at 0x2001.
	ip, _ := runCached(t, "mov eax, 0x44556677\nhlt", 0x1ffd)
	stepN(t, ip, 2)
	if ip.St.GPR[EAX] != 0x44556677 {
		t.Errorf("eax = %#x, want 0x44556677", ip.St.GPR[EAX])
	}
	if !ip.St.Halted {
		t.Error("did not reach hlt")
	}
}

// TestDecodeCacheDeclinedPage runs code on a page the pager declines
// (the MMIO case): execution must fall back to the slow path.
func TestDecodeCacheDeclinedPage(t *testing.T) {
	ip, env := runCached(t, "mov eax, 7\nhlt", 0x1000)
	env.declined[1] = true
	stepN(t, ip, 2)
	if ip.St.GPR[EAX] != 7 {
		t.Errorf("eax = %d, want 7", ip.St.GPR[EAX])
	}
	if env.calls == 0 {
		t.Error("ExecPage never consulted")
	}
}

// TestDecodeCacheMemoStartsEmpty checks that the one-entry memo of a
// new cache serves nothing, not even physical page 0 in 16-bit code
// at generation 0, which its zero key and generation would match.
func TestDecodeCacheMemoStartsEmpty(t *testing.T) {
	if NewDecodeCache().page(0, false, 0) == nil {
		t.Error("a new cache returned no decoded page for page 0")
	}
}

// TestDecodeCacheOverflowResets fills the cache past its page bound and
// checks execution stays correct across the wholesale reset.
func TestDecodeCacheOverflowResets(t *testing.T) {
	c := NewDecodeCache()
	for i := 0; i < decodeCacheMaxPages+8; i++ {
		c.page(uint64(i), true, 0)
	}
	if len(c.pages) > decodeCacheMaxPages {
		t.Errorf("cache grew past its bound: %d pages", len(c.pages))
	}
}

// TestInstNoFaultClassification pins the fuse classes: instructions
// classed fuseAlways must be ones whose exec cannot error, and faultable
// or intercept-able forms must stay out of it. The memory forms whose
// only fault source is their r/m access carry its direction and size;
// register-form DIV is its own class. Every decoded instruction carries
// its class, which the interpreter reads instead of classifying again,
// and InstFusible reports it.
func TestInstNoFaultClassification(t *testing.T) {
	cases := []struct {
		asm   string
		class fuseClass
		size  uint8 // of the memory access
	}{
		{"inc eax", fuseAlways, 0},
		{"mov eax, 42", fuseAlways, 0},
		{"add eax, ebx", fuseAlways, 0},
		{"add eax, 5", fuseAlways, 0},
		{"test al, 1", fuseAlways, 0},
		{"shl eax, 3", fuseAlways, 0},
		{"jz .x\n.x: nop", fuseAlways, 0},
		{"jmp .x\n.x: nop", fuseAlways, 0},
		{"xchg eax, ebx", fuseAlways, 0},
		{"cmc", fuseAlways, 0},
		{"sti", fuseAlways, 0},
		{"not edx", fuseAlways, 0},
		{"imul eax, ebx", fuseAlways, 0},
		{"movzx eax, bl", fuseAlways, 0},
		{"bsf eax, ebx", fuseAlways, 0},
		{"lea eax, [ebx+4]", fuseAlways, 0},
		{"mul ebx", fuseAlways, 0}, // adds ExtraCycles, which a run counts
		{"imul cl", fuseAlways, 0},

		{"mov eax, [ebx]", fuseLoad, 4},
		{"mov al, [ebx]", fuseLoad, 1},
		{"mov ax, [ebx+2]", fuseLoad, 2},
		{"add eax, [ebx]", fuseLoad, 4},
		{"cmp [ebx], eax", fuseLoad, 4},
		{"cmp byte [ebx], 7", fuseLoad, 1},
		{"cmp dword [ebx], 7", fuseLoad, 4},
		{"test [ebx], eax", fuseLoad, 4},
		{"movzx eax, byte [ebx]", fuseLoad, 1},
		{"movsx eax, word [ebx]", fuseLoad, 2},
		{"mov [ebx], eax", fuseStore, 4},
		{"mov [ebx], al", fuseStore, 1},
		{"mov dword [ebx], 9", fuseStore, 4},
		{"mov byte [ebx], 9", fuseStore, 1},
		{"add [ebx], eax", fuseRMW, 4},
		{"xor [ebx], al", fuseRMW, 1},
		{"add dword [ebx], 300", fuseRMW, 4},
		{"sub dword [ebx], 3", fuseRMW, 4},
		{"inc dword [ebx]", fuseRMW, 4},
		{"dec byte [ebx]", fuseRMW, 1},
		{"div ebx", fuseDiv, 0},
		{"div bl", fuseDiv, 0},

		{"idiv ebx", fuseNever, 0},         // #DE on overflow either sign
		{"div dword [ebx]", fuseNever, 0},  // memory-operand DIV
		{"mul dword [ebx]", fuseNever, 0},  // memory-operand MUL
		{"push eax", fuseNever, 0},         // stack write
		{"pop eax", fuseNever, 0},          // stack read
		{"hlt", fuseNever, 0},              // intercept-able
		{"cpuid", fuseNever, 0},            // intercept-able
		{"rdtsc", fuseNever, 0},            // intercept-able
		{"in al, 0x60", fuseNever, 0},      // intercept-able
		{"out 0x80, al", fuseNever, 0},     // intercept-able
		{"mov cr3, eax", fuseNever, 0},     // sensitive
		{"invlpg [eax]", fuseNever, 0},     // sensitive
		{"int 0x10", fuseNever, 0},         // event delivery
		{"rep movsd", fuseNever, 0},        // string/memory
		{"call .x\n.x: nop", fuseNever, 0}, // stack write
		{"ret", fuseNever, 0},              // stack read
		{"push dword [ebx]", fuseNever, 0}, // a load and a stack write
		{"call [ebx]", fuseNever, 0},       // a load and a stack write
	}
	for _, tc := range cases {
		code := MustAssemble("bits 32\n" + tc.asm)
		inst, err := Decode(&pageFetcher{data: code}, true)
		if err != nil {
			t.Fatalf("%q: decode: %v", tc.asm, err)
		}
		if got := instNoFault(inst); got != (tc.class == fuseAlways) {
			t.Errorf("instNoFault(%q) = %v, want %v", tc.asm, got, !got)
		}
		if inst.fuse != tc.class || inst.accessSize != tc.size {
			t.Errorf("%q decoded with fuse class %d, access size %d; want %d, %d",
				tc.asm, inst.fuse, inst.accessSize, tc.class, tc.size)
		}
		fusible, always := InstFusible(inst)
		if fusible != (tc.class != fuseNever) || always != (tc.class == fuseAlways) {
			t.Errorf("InstFusible(%q) = %v, %v for class %d", tc.asm, fusible, always, tc.class)
		}
	}
}
