package hw

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory(1 << 20)
	m.Write8(0x100, 0xab)
	if got := m.Read8(0x100); got != 0xab {
		t.Errorf("Read8 = %#x", got)
	}
	m.Write16(0x200, 0x1234)
	if got := m.Read16(0x200); got != 0x1234 {
		t.Errorf("Read16 = %#x", got)
	}
	m.Write32(0x300, 0xdeadbeef)
	if got := m.Read32(0x300); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x", got)
	}
	m.Write64(0x400, 0x0123456789abcdef)
	if got := m.Read64(0x400); got != 0x0123456789abcdef {
		t.Errorf("Read64 = %#x", got)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory(4096)
	m.Write32(0, 0x11223344)
	if m.Read8(0) != 0x44 || m.Read8(3) != 0x11 {
		t.Errorf("not little-endian: %#x %#x", m.Read8(0), m.Read8(3))
	}
}

// quickMem is a reusable memory for the property test.
var quickMem = NewMemory(1 << 20)

func TestMemoryRoundTripProperty(t *testing.T) {
	// Property: any 32-bit value written at any in-range aligned address
	// reads back identically.
	f := func(off uint16, v uint32) bool {
		addr := PhysAddr(off) * 4
		quickMem.Write32(addr, v)
		return quickMem.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type testMMIO struct {
	lastOff  uint32
	lastVal  uint32
	lastSize int
	readVal  uint32
}

func (d *testMMIO) MMIORead(off uint32, size int) uint32 {
	d.lastOff, d.lastSize = off, size
	return d.readVal
}
func (d *testMMIO) MMIOWrite(off uint32, size int, val uint32) {
	d.lastOff, d.lastSize, d.lastVal = off, size, val
}

func TestMemoryMMIORouting(t *testing.T) {
	m := NewMemory(1 << 20)
	dev := &testMMIO{readVal: 0xcafe}
	if err := m.MapMMIO("dev", 0xf0000000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	if !m.IsMMIO(0xf0000010) {
		t.Error("IsMMIO false inside region")
	}
	if m.IsMMIO(0xf0001000) {
		t.Error("IsMMIO true past region end")
	}
	if got := m.Read32(0xf0000010); got != 0xcafe {
		t.Errorf("MMIO read = %#x", got)
	}
	if dev.lastOff != 0x10 || dev.lastSize != 4 {
		t.Errorf("MMIO read routed to off=%#x size=%d", dev.lastOff, dev.lastSize)
	}
	m.Write16(0xf0000020, 0x55aa)
	if dev.lastOff != 0x20 || dev.lastVal != 0x55aa || dev.lastSize != 2 {
		t.Errorf("MMIO write routed to off=%#x val=%#x size=%d", dev.lastOff, dev.lastVal, dev.lastSize)
	}
}

func TestMemoryMMIOOverlapRejected(t *testing.T) {
	m := NewMemory(1 << 20)
	dev := &testMMIO{}
	if err := m.MapMMIO("a", 0xf0000000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	if err := m.MapMMIO("b", 0xf0000800, 0x1000, dev); err == nil {
		t.Error("overlapping MMIO map accepted")
	}
}

func TestMemoryBytesHelpers(t *testing.T) {
	m := NewMemory(4096)
	data := []byte{1, 2, 3, 4, 5}
	m.WriteBytes(100, data)
	got := m.ReadBytes(100, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("ReadBytes[%d] = %d", i, got[i])
		}
	}
}

func TestMemoryOutOfRangePanics(t *testing.T) {
	m := NewMemory(4096)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	m.Read32(4094)
}

func TestIOPortsRouting(t *testing.T) {
	p := NewIOPorts()
	s := NewSerial8250(0x3f8)
	if err := p.Map("serial", 0x3f8, 0x3ff, s); err != nil {
		t.Fatal(err)
	}
	p.Write(0x3f8, 1, 'X')
	if s.Output() != "X" {
		t.Errorf("serial output = %q", s.Output())
	}
	// Unmapped port floats high and drops writes.
	if got := p.Read(0x80, 1); got != 0xff {
		t.Errorf("unmapped port read = %#x", got)
	}
	p.Write(0x80, 1, 0x42) // must not panic
	if err := p.Map("overlap", 0x3f0, 0x3f8, s); err == nil {
		t.Error("overlapping port map accepted")
	}
}

// codePage is what the decode cache asks of Memory: the page holding
// addr made resident, and its bytes and write generation.
func codePage(m *Memory, addr PhysAddr) (data []byte, gen uint64, ok bool) {
	h, ok := m.Page(addr)
	if !ok {
		return nil, 0, false
	}
	data, _, _, gen = h.View()
	return data, gen, true
}

// TestCodePageAndGenerations pins the decode-cache support contract.
// A Page handle's view aliases RAM, with the page's code map, frame
// number and current write generation; a handle taken while its page
// is absent sees it become resident. Every store path moves a page's
// generation exactly when the store overlaps a byte its code map
// marks: a store that ends on the byte just before the code, or starts
// on the byte just after it, does not. A move clears the map, so the
// same store again moves nothing.
func TestCodePageAndGenerations(t *testing.T) {
	m := NewMemory(1 << 20)
	h, ok := m.Page(0x1234)
	if !ok {
		t.Fatal("Page declined a plain RAM page")
	}
	if h.Read(0x80, 4) != 0 || m.pages[1] != nil {
		t.Fatal("an absent page does not read as zeros, or a read made it resident")
	}
	m.Write8(0x1081, 0xa5)
	if got := h.Read(0x80, 2); got != 0xa500 {
		t.Fatalf("handle taken while absent reads %#x, want 0xa500", got)
	}
	data, _, frame, _ := h.View()
	if len(data) != int(PageSize) || frame != 1 {
		t.Fatalf("page view is %d bytes of frame %d", len(data), frame)
	}
	m.Write8(0x1080, 0x5a)
	if data[0x80] != 0x5a {
		t.Error("page view does not alias RAM")
	}

	gen := func(addr PhysAddr) uint64 {
		_, g, _ := codePage(m, addr)
		return g
	}
	mark := func(addr PhysAddr, n int) {
		t.Helper()
		if !markCode(m, addr, n) {
			t.Fatalf("Page(%#x) declined", addr)
		}
	}
	pageWrite := func(n int) func(PhysAddr) {
		return func(a PhysAddr) {
			h, _ := m.Page(a)
			h.Write(uint32(a), n, 0xeeeeeeee)
		}
	}
	stores := []struct {
		name  string
		n     int
		store func(PhysAddr)
	}{
		{"Write8", 1, func(a PhysAddr) { m.Write8(a, 0xee) }},
		{"Write16", 2, func(a PhysAddr) { m.Write16(a, 0xeeee) }},
		{"Write32", 4, func(a PhysAddr) { m.Write32(a, 0xeeeeeeee) }},
		{"Write64", 8, func(a PhysAddr) { m.Write64(a, 0xeeeeeeeeeeeeeeee) }},
		{"Page.Write/1", 1, pageWrite(1)},
		{"Page.Write/2", 2, pageWrite(2)},
		{"Page.Write/4", 4, pageWrite(4)},
		{"WriteBytes", 100, func(a PhysAddr) { m.WriteBytes(a, make([]byte, 100)) }},
		{"DMAWrite", 100, func(a PhysAddr) {
			if err := NewDirectDMA(m).DMAWrite(0, uint64(a), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// The code is one 4-byte instruction at 0x1100.
	const code, codeLen = PhysAddr(0x1100), 4
	for _, s := range stores {
		for _, c := range []struct {
			what  string
			start PhysAddr
			moves bool
		}{
			{"ends just before the code", code - PhysAddr(s.n), false},
			{"starts just after the code", code + codeLen, false},
			{"ends on the code's first byte", code - PhysAddr(s.n) + 1, true},
			{"starts on the code's last byte", code + codeLen - 1, true},
		} {
			mark(code, codeLen)
			g := gen(code)
			s.store(c.start)
			if moved := gen(code) != g; moved != c.moves {
				t.Errorf("%s at %#x (%s): generation moved = %v, want %v", s.name, c.start, c.what, moved, c.moves)
			}
			if !c.moves {
				continue
			}
			g = gen(code)
			s.store(c.start)
			if gen(code) != g {
				t.Errorf("%s at %#x again: generation moved, but the first move should have cleared the map", s.name, c.start)
			}
		}
	}

	// A store that crosses a page boundary moves the generation of each
	// page whose code it overlaps, and only those.
	for _, c := range []struct {
		name      string
		mark      PhysAddr
		store     func()
		low, high bool
	}{
		{"Write16 high byte on code", 0x2000, func() { m.Write16(0x1fff, 0xeeee) }, false, true},
		{"Write32 low bytes on code", 0x1ffe, func() { m.Write32(0x1ffe, 0xeeeeeeee) }, true, false},
		{"Write64 high byte on code", 0x2005, func() { m.Write64(0x1ffe, 0xeeeeeeeeeeeeeeee) }, false, true},
		{"WriteBytes high byte on code", 0x2000, func() { m.WriteBytes(0x1ff0, make([]byte, 17)) }, false, true},
	} {
		mark(c.mark, 1)
		gLow, gHigh := gen(0x1000), gen(0x2000)
		c.store()
		if low, high := gen(0x1000) != gLow, gen(0x2000) != gHigh; low != c.low || high != c.high {
			t.Errorf("%s: generations moved %v/%v, want %v/%v", c.name, low, high, c.low, c.high)
		}
		// Leave no marks behind for the next case.
		mark(c.mark, 1)
		m.Write8(c.mark, 0)
	}
}

// TestCodePageDeclines checks that Page refuses every page where
// reading raw bytes would skip device semantics or fall off RAM.
func TestCodePageDeclines(t *testing.T) {
	m := NewMemory(1 << 20)
	if err := m.MapMMIO("dev", 0x8000, 64, &testMMIO{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := codePage(m, 0x8010); ok {
		t.Error("Page served a page overlapping an MMIO window")
	}
	// Any address in the same page is declined, even outside the window.
	if _, _, ok := codePage(m, 0x8fff); ok {
		t.Error("Page served the tail of an MMIO-overlapping page")
	}
	if _, _, ok := codePage(m, PhysAddr(1<<20)); ok {
		t.Error("Page served a page beyond RAM")
	}
	if _, _, ok := codePage(m, PhysAddr(1<<20-1)); !ok {
		t.Error("Page declined the last full RAM page")
	}
	if _, _, ok := codePage(m, 0x9000); !ok {
		t.Error("Page declined the page after the MMIO window")
	}
}

// TestMemoryHotPathsDoNotAllocate pins the cost of the page directory:
// loads, stores to resident pages and Page allocate nothing.
func TestMemoryHotPathsDoNotAllocate(t *testing.T) {
	m := NewMemory(1 << 20)
	m.Write8(0x1000, 1) // page 1 resident, page 2 absent
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Read8 resident", func() { m.Read8(0x1001) }},
		{"Read16 resident", func() { m.Read16(0x1002) }},
		{"Read32 resident", func() { m.Read32(0x1004) }},
		{"Read8 absent", func() { m.Read8(0x2001) }},
		{"Read16 absent", func() { m.Read16(0x2002) }},
		{"Read32 absent", func() { m.Read32(0x2004) }},
		{"Write8 resident", func() { m.Write8(0x1001, 1) }},
		{"Write16 resident", func() { m.Write16(0x1002, 1) }},
		{"Write32 resident", func() { m.Write32(0x1004, 1) }},
		{"Page resident", func() { m.Page(0x1000) }},
		{"Page absent", func() { m.Page(0x2000) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
	}
}

// TestMemoryReadsLeaveAbsentPagesAbsent checks that only stores (and
// Page.View) make a page resident.
func TestMemoryReadsLeaveAbsentPagesAbsent(t *testing.T) {
	m := NewMemory(1 << 20)
	u := NewIOMMU(m)
	d := NewIOMMUDomain("dev")
	if err := d.Map(0, 0, 1<<20, IOMMURead|IOMMUWrite); err != nil {
		t.Fatal(err)
	}
	u.Attach(1, d)
	m.Read8(0x2000)
	m.Read16(0x2ffe)
	m.Read32(0x2ffe) // crosses into page 3
	m.Read64(0x3ffc)
	m.ReadBytes(0x4000, 2*PageSize)
	if err := NewDirectDMA(m).DMARead(1, 0x6ff0, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := u.DMARead(1, 0x8ff0, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	for i, p := range m.pages {
		if p != nil {
			t.Errorf("page %d became resident after reads", i)
		}
	}
}

// TestNewMemoryAllocatesOnlyItsDirectory checks that creating RAM costs
// its page directory, not its size.
func TestNewMemoryAllocatesOnlyItsDirectory(t *testing.T) {
	const size = 768 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMemory(size)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	// One pointer per page, plus the Memory header.
	dir := uint64(size/PageSize) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got > dir+1024 {
		t.Errorf("NewMemory(768 MiB) allocated %d bytes, want at most %d", got, dir+1024)
	}
}

// TestDirectDMARejectsRangesThatWrap checks that a DMA range ending past
// 2^64 is refused instead of wrapping around into RAM.
func TestDirectDMARejectsRangesThatWrap(t *testing.T) {
	dma := NewDirectDMA(NewMemory(1 << 20))
	for _, c := range []struct {
		addr uint64
		n    int
	}{{0xfffffffffffff000, PageSize}, {1<<64 - 1, 1}} {
		b := make([]byte, c.n)
		if err := dma.DMARead(0, c.addr, b); err == nil {
			t.Errorf("DMARead of %d bytes at %#x succeeded", c.n, c.addr)
		}
		if err := dma.DMAWrite(0, c.addr, b); err == nil {
			t.Errorf("DMAWrite of %d bytes at %#x succeeded", c.n, c.addr)
		}
	}
}

var (
	benchMemU32  uint32
	benchMemPage Page
	benchMem     *Memory
)

func BenchmarkMemory(b *testing.B) {
	m := NewMemory(64 << 20)
	m.Write32(0x1000, 1) // page 1 resident, page 2 absent
	b.Run("Read32-resident", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchMemU32 += m.Read32(0x1000 + PhysAddr(i&0x3ff)*4)
		}
	})
	b.Run("Write32-resident", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Write32(0x1000+PhysAddr(i&0x3ff)*4, uint32(i))
		}
	})
	b.Run("Page-resident", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchMemPage, _ = m.Page(0x1000)
		}
	})
	b.Run("Read32-absent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchMemU32 += m.Read32(0x2000 + PhysAddr(i&0x3ff)*4)
		}
	})
	b.Run("NewMemory-64MiB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchMem = NewMemory(64 << 20)
		}
	})
}
