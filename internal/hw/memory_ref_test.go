package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refMemory is the flat Memory this package had before RAM became a page
// directory: one zeroed slice for all of RAM and a write generation per
// page. Its range checks do not wrap near 2^64, and it keeps a code
// flag per byte of RAM: a store moves a page's generation when it
// overlaps a flagged byte of the page, and the move clears the page's
// flags. TestMemoryMatchesReference drives it and Memory through the
// same operations.
type refMemory struct {
	ram     []byte
	code    []bool
	regions []mmioRegion // sorted by base
	pageGen []uint64
}

func newRefMemory(size uint64) *refMemory {
	return &refMemory{ram: make([]byte, size), code: make([]bool, size), pageGen: make([]uint64, (size+PageSize-1)/PageSize)}
}

func (m *refMemory) MapMMIO(name string, base PhysAddr, size uint64, handler MMIOHandler) error {
	for _, r := range m.regions {
		if base < r.base+PhysAddr(r.size) && r.base < base+PhysAddr(size) {
			return fmt.Errorf("hw: MMIO region %s [%#x,%#x) overlaps %s", name, base, uint64(base)+size, r.name)
		}
	}
	m.regions = append(m.regions, mmioRegion{base: base, size: size, handler: handler, name: name})
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].base < m.regions[j].base })
	return nil
}

func (m *refMemory) MMIOAt(addr PhysAddr) (MMIOHandler, uint32, bool) {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].base+PhysAddr(m.regions[i].size) > addr
	})
	if i < len(m.regions) && addr >= m.regions[i].base {
		return m.regions[i].handler, uint32(addr - m.regions[i].base), true
	}
	return nil, 0, false
}

func (m *refMemory) inRAM(addr, n uint64) bool {
	return addr <= uint64(len(m.ram)) && n <= uint64(len(m.ram))-addr
}

func (m *refMemory) touch(addr PhysAddr, n int) {
	for a := uint64(addr); a < uint64(addr)+uint64(n); a++ {
		if m.code[a] {
			m.pageGen[a>>12]++
			clear(m.code[a&^(PageSize-1) : min(a|(PageSize-1)+1, uint64(len(m.code)))])
		}
	}
}

// MarkCode flags n bytes at addr as code when CodePage serves addr's
// page, clipping them at the end of the page.
func (m *refMemory) MarkCode(addr PhysAddr, n int) bool {
	if _, _, ok := m.CodePage(addr); !ok {
		return false
	}
	for a := uint64(addr); a < min(uint64(addr)+uint64(n), uint64(addr)|(PageSize-1)+1); a++ {
		m.code[a] = true
	}
	return true
}

func (m *refMemory) overlapsMMIO(base PhysAddr, size uint64) bool {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].base+PhysAddr(m.regions[i].size) > base
	})
	return i < len(m.regions) && m.regions[i].base < base+PhysAddr(size)
}

func (m *refMemory) CodePage(addr PhysAddr) (data []byte, gen uint64, ok bool) {
	base := addr &^ (PageSize - 1)
	if !m.inRAM(uint64(base), PageSize) || m.overlapsMMIO(base, PageSize) {
		return nil, 0, false
	}
	return m.ram[base : base+PageSize : base+PageSize], m.pageGen[base>>12], true
}

func (m *refMemory) checkRAM(addr PhysAddr, n int) {
	if !m.inRAM(uint64(addr), uint64(n)) {
		panic(fmt.Sprintf("ref: physical access of %d bytes at %#x beyond RAM", n, addr))
	}
}

func (m *refMemory) Read8(addr PhysAddr) uint8 {
	if h, off, ok := m.MMIOAt(addr); ok {
		return uint8(h.MMIORead(off, 1))
	}
	m.checkRAM(addr, 1)
	return m.ram[addr]
}

func (m *refMemory) Read16(addr PhysAddr) uint16 {
	if h, off, ok := m.MMIOAt(addr); ok {
		return uint16(h.MMIORead(off, 2))
	}
	m.checkRAM(addr, 2)
	return binary.LittleEndian.Uint16(m.ram[addr:])
}

func (m *refMemory) Read32(addr PhysAddr) uint32 {
	if h, off, ok := m.MMIOAt(addr); ok {
		return h.MMIORead(off, 4)
	}
	m.checkRAM(addr, 4)
	return binary.LittleEndian.Uint32(m.ram[addr:])
}

func (m *refMemory) Read64(addr PhysAddr) uint64 {
	m.checkRAM(addr, 8)
	return binary.LittleEndian.Uint64(m.ram[addr:])
}

func (m *refMemory) Write8(addr PhysAddr, v uint8) {
	if h, off, ok := m.MMIOAt(addr); ok {
		h.MMIOWrite(off, 1, uint32(v))
		return
	}
	m.checkRAM(addr, 1)
	m.touch(addr, 1)
	m.ram[addr] = v
}

func (m *refMemory) Write16(addr PhysAddr, v uint16) {
	if h, off, ok := m.MMIOAt(addr); ok {
		h.MMIOWrite(off, 2, uint32(v))
		return
	}
	m.checkRAM(addr, 2)
	m.touch(addr, 2)
	binary.LittleEndian.PutUint16(m.ram[addr:], v)
}

func (m *refMemory) Write32(addr PhysAddr, v uint32) {
	if h, off, ok := m.MMIOAt(addr); ok {
		h.MMIOWrite(off, 4, v)
		return
	}
	m.checkRAM(addr, 4)
	m.touch(addr, 4)
	binary.LittleEndian.PutUint32(m.ram[addr:], v)
}

func (m *refMemory) Write64(addr PhysAddr, v uint64) {
	m.checkRAM(addr, 8)
	m.touch(addr, 8)
	binary.LittleEndian.PutUint64(m.ram[addr:], v)
}

func (m *refMemory) ReadBytes(addr PhysAddr, n int) []byte {
	m.checkRAM(addr, n)
	out := make([]byte, n)
	copy(out, m.ram[addr:])
	return out
}

func (m *refMemory) WriteBytes(addr PhysAddr, b []byte) {
	m.checkRAM(addr, len(b))
	m.touch(addr, len(b))
	copy(m.ram[addr:], b)
}

// refDMA is directDMA over a refMemory.
type refDMA struct{ m *refMemory }

func (d refDMA) DMARead(dev DeviceID, addr uint64, b []byte) error {
	if !d.m.inRAM(addr, uint64(len(b))) {
		return fmt.Errorf("ref: DMA read beyond RAM")
	}
	copy(b, d.m.ram[addr:])
	return nil
}

func (d refDMA) DMAWrite(dev DeviceID, addr uint64, b []byte) error {
	if !d.m.inRAM(addr, uint64(len(b))) {
		return fmt.Errorf("ref: DMA write beyond RAM")
	}
	d.m.touch(PhysAddr(addr), len(b))
	copy(d.m.ram[addr:], b)
	return nil
}

// mmioCall is one device-handler call.
type mmioCall struct {
	write  bool
	off    uint32
	size   int
	val    uint32
	window int
}

// recMMIO logs every handler call into a log shared by the windows of
// one memory, and answers a read with a value derived from the log
// length, so both memories see the same answers only if they made the
// same calls.
type recMMIO struct {
	log    *[]mmioCall
	window int
}

func (d recMMIO) MMIORead(off uint32, size int) uint32 {
	*d.log = append(*d.log, mmioCall{off: off, size: size, window: d.window})
	return uint32(len(*d.log))*0x9e3779b1 ^ off
}

func (d recMMIO) MMIOWrite(off uint32, size int, val uint32) {
	*d.log = append(*d.log, mmioCall{write: true, off: off, size: size, val: val, window: d.window})
}

// Geometry of the differential test: 16½ pages of RAM, so the last page
// is partial; one device window covering part of page 5, one above RAM;
// an IOMMU domain for device iommuDev that maps bus pages onto RAM.
const (
	refRAMSize  = 16*PageSize + PageSize/2
	refWinRAM   = PhysAddr(0x5100)
	refWinAbove = PhysAddr(0x20000)
	refBusBase  = uint64(0x100000)
	iommuDev    = DeviceID(1)
)

// memPair is a Memory and a refMemory under test, with their DMA paths
// and MMIO logs.
type memPair struct {
	m                 *Memory
	ref               *refMemory
	direct, refDirect DMABus
	iommu, refIOMMU   *IOMMU
	log, refLog       []mmioCall
	views, refViews   [][]byte     // CodePage results, checked after every op
	ram               bytes.Buffer // WriteTo output
}

type dmaResult struct {
	ok   bool
	data []byte
}

type codePageResult struct {
	ok   bool
	gen  uint64
	data []byte
}

func newMemPair(t testing.TB) *memPair {
	p := &memPair{m: NewMemory(refRAMSize), ref: newRefMemory(refRAMSize)}
	for i, w := range []struct {
		base PhysAddr
		size uint64
	}{{refWinRAM, 0x80}, {refWinAbove, PageSize}} {
		if err := p.m.MapMMIO(fmt.Sprint("w", i), w.base, w.size, recMMIO{&p.log, i}); err != nil {
			t.Fatal(err)
		}
		if err := p.ref.MapMMIO(fmt.Sprint("w", i), w.base, w.size, recMMIO{&p.refLog, i}); err != nil {
			t.Fatal(err)
		}
	}
	p.direct, p.refDirect = NewDirectDMA(p.m), refDMA{p.ref}
	p.iommu = NewIOMMU(p.m)
	p.refIOMMU = NewIOMMU(nil)
	p.refIOMMU.inner = p.refDirect
	for _, u := range []*IOMMU{p.iommu, p.refIOMMU} {
		d := NewIOMMUDomain("ref")
		// Bus page i maps RAM page i; page 3 is read-only, page 4
		// write-only, page 9 unmapped, and bus page 18 maps the
		// window above RAM. RAM page 12 is protected.
		for i := uint64(0); i < 19; i++ {
			perm := IOMMURead | IOMMUWrite
			switch i {
			case 3:
				perm = IOMMURead
			case 4:
				perm = IOMMUWrite
			case 9:
				continue
			case 18:
				if err := d.Map(refBusBase+i*PageSize, uint64(refWinAbove), PageSize, perm); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := d.Map(refBusBase+i*PageSize, i*PageSize, PageSize, perm); err != nil {
				t.Fatal(err)
			}
		}
		u.Attach(iommuDev, d)
		u.BlockRange(12*PageSize, 13*PageSize)
	}
	return p
}

// memOps decodes a byte stream into operations; an exhausted stream
// reads as zeros.
type memOps struct{ b []byte }

func (s *memOps) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *memOps) u24() uint64 {
	return uint64(s.byte()) | uint64(s.byte())<<8 | uint64(s.byte())<<16
}

// addr picks an address near the places where the two memories could
// disagree: page boundaries, the edges of both device windows, the end
// of RAM and the top of the address space.
func (s *memOps) addr() PhysAddr {
	class, off := s.byte(), s.u24()
	switch class % 8 {
	case 0, 1:
		return PhysAddr(off % refRAMSize)
	case 2:
		return PhysAddr((off%18)*PageSize + off>>8%16 - 8)
	case 3:
		return refWinRAM - 8 + PhysAddr(off%0x90)
	case 4:
		return refWinRAM&^(PageSize-1) + PhysAddr(off%PageSize)
	case 5:
		return refRAMSize - 8 + PhysAddr(off%16)
	case 6:
		return refWinAbove - 8 + PhysAddr(off%(PageSize+16))
	default:
		return ^PhysAddr(0) - PhysAddr(off%16)
	}
}

// busAddr picks an IOMMU bus address around the mapped bus pages.
func (s *memOps) busAddr() uint64 {
	return refBusBase - 8 + s.u24()%(20*PageSize)
}

// length picks a transfer size: mostly small, sometimes one or two
// pages and more.
func (s *memOps) length() int {
	n := int(s.byte())
	switch n % 4 {
	case 0:
		return n % 9
	case 1:
		return n % 64
	case 2:
		return PageSize - 8 + n%16
	default:
		return 2*PageSize + n%16
	}
}

// data makes n bytes that differ from op to op.
func (s *memOps) data(n int) []byte {
	b := make([]byte, n)
	seed := s.byte()
	for i := range b {
		b[i] = seed + byte(i*7) + byte(i>>8)
	}
	return b
}

// markCode marks n bytes at addr in the code map of addr's page, the way
// the decode cache marks an instruction it caches, clipping them at the
// end of the page. It reports whether Page served the page.
func markCode(m *Memory, addr PhysAddr, n int) bool {
	h, ok := m.Page(addr)
	if ok {
		_, code, _, _ := h.View()
		off := int(addr & (PageSize - 1))
		code.Mark(off, min(n, PageSize-off))
	}
	return ok
}

// catch runs f and reports whether it panicked.
func catch(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// step runs one operation on both memories and describes how their
// results differ; "" means they agree.
func (p *memPair) step(s *memOps) (desc, diff string) {
	op := s.byte() % 16
	addr := s.addr()
	var got, want any
	var gotPanic, wantPanic bool
	both := func(f func(m *Memory) any, g func(r *refMemory) any) {
		gotPanic = catch(func() { got = f(p.m) })
		wantPanic = catch(func() { want = g(p.ref) })
	}
	switch op {
	case 0:
		desc = fmt.Sprintf("Read8(%#x)", addr)
		both(func(m *Memory) any { return m.Read8(addr) }, func(r *refMemory) any { return r.Read8(addr) })
	case 1:
		desc = fmt.Sprintf("Read16(%#x)", addr)
		both(func(m *Memory) any { return m.Read16(addr) }, func(r *refMemory) any { return r.Read16(addr) })
	case 2:
		desc = fmt.Sprintf("Read32(%#x)", addr)
		both(func(m *Memory) any { return m.Read32(addr) }, func(r *refMemory) any { return r.Read32(addr) })
	case 3:
		desc = fmt.Sprintf("Read64(%#x)", addr)
		both(func(m *Memory) any { return m.Read64(addr) }, func(r *refMemory) any { return r.Read64(addr) })
	case 4:
		v := s.byte()
		desc = fmt.Sprintf("Write8(%#x, %#x)", addr, v)
		both(func(m *Memory) any { m.Write8(addr, v); return nil }, func(r *refMemory) any { r.Write8(addr, v); return nil })
	case 5:
		v := binary.LittleEndian.Uint16(s.data(2))
		desc = fmt.Sprintf("Write16(%#x, %#x)", addr, v)
		both(func(m *Memory) any { m.Write16(addr, v); return nil }, func(r *refMemory) any { r.Write16(addr, v); return nil })
	case 6:
		v := binary.LittleEndian.Uint32(s.data(4))
		desc = fmt.Sprintf("Write32(%#x, %#x)", addr, v)
		both(func(m *Memory) any { m.Write32(addr, v); return nil }, func(r *refMemory) any { r.Write32(addr, v); return nil })
	case 7:
		v := binary.LittleEndian.Uint64(s.data(8))
		desc = fmt.Sprintf("Write64(%#x, %#x)", addr, v)
		both(func(m *Memory) any { m.Write64(addr, v); return nil }, func(r *refMemory) any { r.Write64(addr, v); return nil })
	case 8:
		n := s.length()
		desc = fmt.Sprintf("ReadBytes(%#x, %d)", addr, n)
		both(func(m *Memory) any { return m.ReadBytes(addr, n) }, func(r *refMemory) any { return r.ReadBytes(addr, n) })
	case 9:
		b := s.data(s.length())
		desc = fmt.Sprintf("WriteBytes(%#x, %d bytes)", addr, len(b))
		both(func(m *Memory) any { m.WriteBytes(addr, b); return nil }, func(r *refMemory) any { r.WriteBytes(addr, b); return nil })
	case 10, 11, 12, 13:
		bus, busAddr, refBus, kind := p.direct, uint64(addr), p.refDirect, "direct"
		if op >= 12 {
			bus, busAddr, refBus, kind = p.iommu, s.busAddr(), p.refIOMMU, "IOMMU"
		}
		n := s.length()
		if op%2 == 0 {
			desc = fmt.Sprintf("%s DMARead(%#x, %d)", kind, busAddr, n)
			gb, rb := make([]byte, n), make([]byte, n)
			gotPanic = catch(func() { got = dmaResult{bus.DMARead(iommuDev, busAddr, gb) == nil, gb} })
			wantPanic = catch(func() { want = dmaResult{refBus.DMARead(iommuDev, busAddr, rb) == nil, rb} })
		} else {
			b := s.data(n)
			desc = fmt.Sprintf("%s DMAWrite(%#x, %d)", kind, busAddr, n)
			gotPanic = catch(func() { got = bus.DMAWrite(iommuDev, busAddr, b) == nil })
			wantPanic = catch(func() { want = refBus.DMAWrite(iommuDev, busAddr, b) == nil })
		}
		if op >= 12 {
			g, w := p.iommu, p.refIOMMU
			if g.DMAPasses != w.DMAPasses || g.DMABlocks != w.DMABlocks || !slices.Equal(g.Faults, w.Faults) {
				return desc, fmt.Sprintf("IOMMU counters %d/%d/%v, reference %d/%d/%v",
					g.DMAPasses, g.DMABlocks, g.Faults, w.DMAPasses, w.DMABlocks, w.Faults)
			}
		}
	case 15:
		n := int(s.byte()%15) + 1
		desc = fmt.Sprintf("MarkCode(%#x, %d)", addr, n)
		got, want = markCode(p.m, addr, n), p.ref.MarkCode(addr, n)
	default:
		desc = fmt.Sprintf("CodePage(%#x)", addr)
		gd, gg, gok := codePage(p.m, addr)
		rd, rg, rok := p.ref.CodePage(addr)
		got, want = codePageResult{gok, gg, gd}, codePageResult{rok, rg, rd}
		if gok && rok {
			// Keep the last eight views: enough to catch a view that
			// stops aliasing its page.
			p.views, p.refViews = append(p.views, gd), append(p.refViews, rd)
			if len(p.views) > 8 {
				p.views, p.refViews = p.views[1:], p.refViews[1:]
			}
		}
	}
	if gotPanic != wantPanic {
		return desc, fmt.Sprintf("panicked = %v, reference %v", gotPanic, wantPanic)
	}
	if !gotPanic && !reflect.DeepEqual(got, want) {
		return desc, fmt.Sprintf("result %v, reference %v", got, want)
	}
	return desc, p.compareState()
}

// compareState compares everything observable after an operation: the
// handler calls, every page's write generation, every CodePage view
// handed out so far, and the WriteTo stream against the flat RAM.
func (p *memPair) compareState() string {
	if !slices.Equal(p.log, p.refLog) {
		return fmt.Sprintf("MMIO calls %v, reference %v", p.log, p.refLog)
	}
	for i, want := range p.ref.pageGen {
		var got uint64
		if pg := p.m.pages[i]; pg != nil {
			got = pg.gen
		}
		if got != want {
			return fmt.Sprintf("page %d generation %d, reference %d", i, got, want)
		}
	}
	for i := range p.views {
		if !bytes.Equal(p.views[i], p.refViews[i]) {
			return fmt.Sprintf("CodePage view %d no longer matches the reference", i)
		}
	}
	p.ram.Reset()
	if n, err := p.m.WriteTo(&p.ram); err != nil || n != refRAMSize {
		return fmt.Sprintf("WriteTo wrote %d bytes, err %v", n, err)
	}
	if ram := p.ram.Bytes(); !bytes.Equal(ram, p.ref.ram) {
		i := 0
		for ram[i] == p.ref.ram[i] {
			i++
		}
		return fmt.Sprintf("RAM differs first at %#x: %#x, reference %#x", i, ram[i], p.ref.ram[i])
	}
	return ""
}

// runMemoryOps drives a Memory and a refMemory through the operations
// encoded in ops and fails at the first disagreement.
func runMemoryOps(t *testing.T, ops []byte) {
	p := newMemPair(t)
	s := &memOps{b: ops}
	for i := 0; len(s.b) > 0; i++ {
		if desc, diff := p.step(s); diff != "" {
			t.Fatalf("op %d, %s: %s", i, desc, diff)
		}
	}
}

// TestMemoryMatchesReference checks the page directory against the flat
// memory it replaced, over seeded random operations: every access
// width, page-crossing accesses, byte copies, direct and IOMMU DMA,
// CodePage and code marks, around a device window inside a RAM page, one above RAM,
// the partial last page and the top of the address space.
func TestMemoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 8*1000)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runMemoryOps(t, ops) })
	}
}

func FuzzMemoryMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runMemoryOps)
}
