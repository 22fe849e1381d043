package x86

import "testing"

// pagerEnv extends flatEnv with the ExecPager fast path: identity
// translation, a write generation and a code map per page that follow
// hw.Memory's contract, a way to decline pages (as MMIO-backed pages
// are declined), and a fixed charge per fetch translation, as a TLB
// miss would charge.
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

// TestInstNoFaultClassification pins the snapshot-elision classifier:
// instructions listed safe must be ones whose exec cannot error;
// faultable or intercept-able forms must stay unsafe. Every decoded
// instruction carries the classifier's results, which the interpreter
// reads instead of classifying again; MUL is no-fault but not fusible.
func TestInstNoFaultClassification(t *testing.T) {
	cases := []struct {
		asm  string
		safe bool
	}{
		{"inc eax", true},
		{"mov eax, 42", true},
		{"add eax, ebx", true},
		{"add eax, 5", true},
		{"test al, 1", true},
		{"shl eax, 3", true},
		{"jz .x\n.x: nop", true},
		{"jmp .x\n.x: nop", true},
		{"xchg eax, ebx", true},
		{"cmc", true},
		{"sti", true},
		{"not edx", true},
		{"imul eax, ebx", true},
		{"movzx eax, bl", true},
		{"bsf eax, ebx", true},
		{"lea eax, [ebx+4]", true},
		{"mul ebx", true},

		{"div ebx", false},          // #DE
		{"idiv ebx", false},         // #DE
		{"mov eax, [ebx]", false},   // memory operand
		{"add [ebx], eax", false},   // memory operand
		{"push eax", false},         // stack write
		{"pop eax", false},          // stack read
		{"hlt", false},              // intercept-able
		{"cpuid", false},            // intercept-able
		{"rdtsc", false},            // intercept-able
		{"in al, 0x60", false},      // intercept-able
		{"out 0x80, al", false},     // intercept-able
		{"mov cr3, eax", false},     // sensitive
		{"invlpg [eax]", false},     // sensitive
		{"int 0x10", false},         // event delivery
		{"rep movsd", false},        // string/memory
		{"call .x\n.x: nop", false}, // stack write
		{"ret", false},              // stack read
	}
	for _, tc := range cases {
		code := MustAssemble("bits 32\n" + tc.asm)
		inst, err := Decode(&pageFetcher{data: code}, true)
		if err != nil {
			t.Fatalf("%q: decode: %v", tc.asm, err)
		}
		if got := instNoFault(inst); got != tc.safe {
			t.Errorf("instNoFault(%q) = %v, want %v", tc.asm, got, tc.safe)
		}
		if inst.noFault != tc.safe || inst.fusible != InstFusible(inst) {
			t.Errorf("%q decoded with noFault %v, fusible %v; the classifiers say %v, %v",
				tc.asm, inst.noFault, inst.fusible, tc.safe, InstFusible(inst))
		}
		if fusible := tc.safe && tc.asm != "mul ebx"; InstFusible(inst) != fusible {
			t.Errorf("InstFusible(%q) = %v, want %v", tc.asm, !fusible, fusible)
		}
	}
}

// TestBlockFit pins how a fuse window becomes a fused run's length:
// instruction i starts charged+i·instCost cycles into the step, and
// the run admits exactly those that start inside the window, always
// including the first.
func TestBlockFit(t *testing.T) {
	for _, tc := range []struct {
		window, charged, instCost, want uint64
	}{
		{50, 0, 1, 50},
		{50, 0, 3, 17}, // instruction 16 starts at 48, 17 at 51
		{51, 0, 3, 17},
		{52, 0, 3, 18},
		{2, 0, 1, 2},
		{4, 0, 3, 2},
		{100, 30, 1, 70},
		{100, 30, 3, 24}, // instruction 23 starts at 99
		{100, 31, 3, 23},
		{100, 100, 1, 1}, // the fetch alone fills the window
		{100, 250, 3, 1},
	} {
		got := blockFit(tc.window, tc.charged, tc.instCost)
		if got != tc.want {
			t.Errorf("blockFit(%d, %d, %d) = %d, want %d", tc.window, tc.charged, tc.instCost, got, tc.want)
		}
		if last := tc.charged + (got-1)*tc.instCost; got > 1 && last >= tc.window {
			t.Errorf("blockFit(%d, %d, %d): instruction %d starts at %d, outside the window",
				tc.window, tc.charged, tc.instCost, got-1, last)
		}
		if next := tc.charged + got*tc.instCost; next < tc.window {
			t.Errorf("blockFit(%d, %d, %d): instruction %d starts at %d, inside the window, but is refused",
				tc.window, tc.charged, tc.instCost, got, next)
		}
	}
}
