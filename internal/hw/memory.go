package hw

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// PageSize is the base (small) page size of the simulated platform.
const PageSize = 4096

// PhysAddr is a host-physical address.
type PhysAddr uint64

// MMIOHandler models a device's memory-mapped register window. Reads and
// writes are of size 1, 2 or 4 bytes, offset-relative to the region base.
type MMIOHandler interface {
	MMIORead(off uint32, size int) uint32
	MMIOWrite(off uint32, size int, val uint32)
}

type mmioRegion struct {
	base    PhysAddr
	size    uint64
	handler MMIOHandler
	name    string
}

// page is one resident 4 KiB page of RAM.
type page struct {
	data [PageSize]byte

	// gen moves when a store overlaps a byte that code marks, that is,
	// a byte some host-side decode cache holds an instruction for. A
	// cache that sees gen move drops every decode of the page, so the
	// move also clears the map; re-decoding marks the bytes again. gen
	// is pure host bookkeeping and never affects simulated behaviour
	// or cycle accounting.
	gen uint64

	// slow sends every access to the page down the MMIO-routed,
	// bounds-checked path: the page overlaps a device window, or it is
	// a trailing partial page that runs past the end of RAM.
	slow bool

	// hasCode says whether code marks any byte; while it is false the
	// bits in code are left over from before the last move of gen and
	// mean nothing. It shares gen's cache line, so a store to a page
	// without code reads no other line of the map.
	hasCode bool

	// code holds one bit per byte of data, bit i&7 of code[i>>3] for
	// byte i. The 7 spare bytes let an 8-byte load start at any byte.
	code [PageSize/8 + 7]byte
}

// bump moves the generation after a store that overlapped marked code
// and clears the map.
func (p *page) bump() {
	p.gen++
	p.hasCode = false
}

// overlapsCode reports whether a store to bytes [off, off+n) of the
// page overlaps marked code; the range must lie inside the page. One
// 8-byte load of the map covers 57 bytes at any bit offset.
func (p *page) overlapsCode(off, n uint32) bool {
	for p.hasCode && n > 0 {
		k := min(n, 57)
		if binary.LittleEndian.Uint64(p.code[off>>3:])>>(off&7)<<(64-k) != 0 {
			return true
		}
		off, n = off+k, n-k
	}
	return false
}

// CodeMap is the code map of one page as View hands it out.
type CodeMap struct{ p *page }

// Mark records that a host-side decode cache holds an instruction
// decoded from bytes [off, off+n) of the page, so that a store to any
// of them moves the page's write generation. The range must lie inside
// the page.
func (c CodeMap) Mark(off, n int) {
	p := c.p
	if !p.hasCode {
		p.code = [len(p.code)]byte{}
		p.hasCode = true
	}
	for i := off; i < off+n; i++ {
		p.code[i>>3] |= 1 << (i & 7)
	}
}

// Page is a handle on one 4 KiB page of plain RAM, as Memory.Page hands
// it out: the page's directory entry. While the page is absent it reads
// as zeros; a store or View makes it resident. A handle stays valid for
// the life of the Memory and sees every later store to its page.
type Page struct {
	dir   **page
	frame uint64 // physical frame number (address >> 12)
}

// resident returns the page, allocating it if it is absent.
func (h Page) resident() *page {
	if *h.dir == nil {
		*h.dir = new(page)
	}
	return *h.dir
}

// Read loads n ∈ {1, 2, 4} little-endian bytes at page offset off; the
// load must end inside the page.
func (h Page) Read(off uint32, n int) uint32 {
	p := *h.dir
	if p == nil {
		return 0
	}
	b := p.data[off&(PageSize-1):]
	switch n {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	}
	return binary.LittleEndian.Uint32(b)
}

// Write stores the low n ∈ {1, 2, 4} bytes of v little-endian at page
// offset off, moving the page's write generation if the store overlaps
// marked code; the store must end inside the page. It spells out
// resident and bump to stay small enough to inline.
func (h Page) Write(off uint32, n int, v uint32) {
	p := *h.dir
	if p == nil {
		p = new(page)
		*h.dir = p
	}
	off &= PageSize - 1
	if p.hasCode && binary.LittleEndian.Uint64(p.code[off>>3:])>>(off&7)<<(64-n) != 0 {
		p.gen++
		p.hasCode = false
	}
	switch n {
	case 1:
		p.data[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p.data[off:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(p.data[off:], v)
	}
}

// OverlapsCode reports whether a store of n bytes at page offset off
// would overlap marked code, and so move the page's write generation;
// the store must end inside the page. It changes nothing.
func (h Page) OverlapsCode(off uint32, n int) bool {
	p := *h.dir
	return p != nil && p.overlapsCode(off&(PageSize-1), uint32(n))
}

// View makes the page resident and returns its bytes, its code map, its
// frame number and its current write generation, for host-side caches
// of decoded code. The bytes alias RAM, so they show every later store,
// and must not be written through.
func (h Page) View() (data []byte, code CodeMap, frame, gen uint64) {
	p := h.resident()
	return p.data[:], CodeMap{p}, h.frame, p.gen
}

// Memory is the platform's physical memory plus the MMIO address space.
// RAM is a directory with one entry per 4 KiB page, the way NOVA hands
// out memory (§6). A page is allocated by the first store to it; until
// then its entry is nil and it reads as zeros. Device windows are
// claimed with MapMMIO; ordinary loads and stores to those ranges are
// routed to the device handler.
type Memory struct {
	pages   []*page
	size    uint64
	regions []mmioRegion // sorted by base
}

// NewMemory creates size bytes of physical RAM. It allocates only the
// page directory; pages come with their first store.
func NewMemory(size uint64) *Memory {
	m := &Memory{pages: make([]*page, (size+PageSize-1)/PageSize), size: size}
	if size%PageSize != 0 {
		m.resident(size / PageSize).slow = true
	}
	return m
}

// Size returns the amount of RAM in bytes.
func (m *Memory) Size() uint64 { return m.size }

// MapMMIO registers handler for the physical range [base, base+size).
// The range must not overlap RAM-backed addresses in use or another
// region.
func (m *Memory) MapMMIO(name string, base PhysAddr, size uint64, handler MMIOHandler) error {
	for _, r := range m.regions {
		if base < r.base+PhysAddr(r.size) && r.base < base+PhysAddr(size) {
			return fmt.Errorf("hw: MMIO region %s [%#x,%#x) overlaps %s", name, base, uint64(base)+size, r.name)
		}
	}
	m.regions = append(m.regions, mmioRegion{base: base, size: size, handler: handler, name: name})
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].base < m.regions[j].base })
	for p := uint64(base) >> 12; p < uint64(len(m.pages)) && p<<12 < uint64(base)+size; p++ {
		m.resident(p).slow = true
	}
	return nil
}

// MMIOAt returns the handler covering addr, if any.
func (m *Memory) MMIOAt(addr PhysAddr) (MMIOHandler, uint32, bool) {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].base+PhysAddr(m.regions[i].size) > addr
	})
	if i < len(m.regions) && addr >= m.regions[i].base {
		return m.regions[i].handler, uint32(addr - m.regions[i].base), true
	}
	return nil, 0, false
}

// IsMMIO reports whether addr falls inside a registered device window.
func (m *Memory) IsMMIO(addr PhysAddr) bool {
	_, _, ok := m.MMIOAt(addr)
	return ok
}

// resident returns page idx, allocating it on first use.
func (m *Memory) resident(idx uint64) *page {
	return Page{&m.pages[idx], idx}.resident() // sanitized: callers bound idx by the directory length or by inRAM
}

// Page returns the handle of the page of plain RAM that holds addr. ok
// is false when the page is not plain RAM: it lies past the end of RAM
// or overlaps a device window, where reads have side effects and every
// access must take Read*/Write* to reach the device.
func (m *Memory) Page(addr PhysAddr) (h Page, ok bool) {
	idx := uint64(addr) >> 12
	if idx >= uint64(len(m.pages)) {
		return Page{}, false
	}
	h = Page{&m.pages[idx], idx}
	if p := *h.dir; p != nil && p.slow {
		return Page{}, false
	}
	return h, true
}

// inRAM reports whether [addr, addr+n) lies inside RAM. It does not wrap
// for ranges that end past 2^64.
func (m *Memory) inRAM(addr, n uint64) bool {
	return addr <= m.size && n <= m.size-addr
}

func (m *Memory) checkRAM(addr PhysAddr, n int) {
	if !m.inRAM(uint64(addr), uint64(n)) {
		// invariant: guest accesses are bounds-checked during address
		// translation (vTLB/EPT walk) before they reach physical memory,
		// so an out-of-range physical access can only come from a bug in
		// the simulator itself — never from guest or user input.
		panic(fmt.Sprintf("hw: physical access of %d bytes at %#x beyond RAM size %#x", n, addr, m.size))
	}
}

// readAt copies RAM at addr into b page by page; absent pages read as
// zeros. Callers have bounds-checked [addr, addr+len(b)).
func (m *Memory) readAt(b []byte, addr uint64) {
	for len(b) > 0 {
		off := addr & (PageSize - 1)
		n := min(uint64(len(b)), PageSize-off)
		if p := m.pages[addr>>12]; p != nil { // sanitized: callers checkRAM or inRAM the full range first
			copy(b, p.data[off:off+n])
		} else {
			clear(b[:n])
		}
		b, addr = b[n:], addr+n
	}
}

// writeAt copies b into RAM at addr page by page, allocating absent
// pages and moving the generation of each page whose marked code it
// overlaps. Callers have bounds-checked [addr, addr+len(b)).
func (m *Memory) writeAt(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.resident(addr >> 12)
		off := uint32(addr & (PageSize - 1))
		n := min(uint32(len(b)), PageSize-off)
		if p.overlapsCode(off, n) {
			p.bump()
		}
		copy(p.data[off:], b[:n])
		b, addr = b[n:], addr+uint64(n)
	}
}

// readSlow serves a load of n ≤ 4 bytes that plain declined: a
// device-window address goes to its handler; anything else is
// bounds-checked and read across pages.
func (m *Memory) readSlow(addr PhysAddr, n int) uint32 {
	if h, off, ok := m.MMIOAt(addr); ok {
		return h.MMIORead(off, n)
	}
	m.checkRAM(addr, n)
	var b [4]byte
	m.readAt(b[:n], uint64(addr))
	return binary.LittleEndian.Uint32(b[:])
}

// writeSlow is readSlow for stores.
func (m *Memory) writeSlow(addr PhysAddr, n int, v uint32) {
	if h, off, ok := m.MMIOAt(addr); ok {
		h.MMIOWrite(off, n, v)
		return
	}
	m.checkRAM(addr, n)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.writeAt(uint64(addr), b[:n])
}

// plain returns the page an n-byte access at addr goes to when the
// access stays inside one page of plain RAM.
func (m *Memory) plain(addr PhysAddr, n int) (Page, bool) {
	if uint64(addr)&(PageSize-1)+uint64(n) > PageSize {
		return Page{}, false
	}
	return m.Page(addr)
}

// Read8 loads one byte of physical memory, routing to MMIO if mapped.
func (m *Memory) Read8(addr PhysAddr) uint8 {
	if h, ok := m.plain(addr, 1); ok {
		return uint8(h.Read(uint32(addr), 1))
	}
	return uint8(m.readSlow(addr, 1))
}

// Read16 loads a little-endian 16-bit value.
func (m *Memory) Read16(addr PhysAddr) uint16 {
	if h, ok := m.plain(addr, 2); ok {
		return uint16(h.Read(uint32(addr), 2))
	}
	return uint16(m.readSlow(addr, 2))
}

// Read32 loads a little-endian 32-bit value.
func (m *Memory) Read32(addr PhysAddr) uint32 {
	if h, ok := m.plain(addr, 4); ok {
		return h.Read(uint32(addr), 4)
	}
	return m.readSlow(addr, 4)
}

// Read64 loads a little-endian 64-bit value from RAM (not MMIO).
func (m *Memory) Read64(addr PhysAddr) uint64 {
	m.checkRAM(addr, 8)
	var b [8]byte
	m.readAt(b[:], uint64(addr))
	return binary.LittleEndian.Uint64(b[:])
}

// Write8 stores one byte, routing to MMIO if mapped.
func (m *Memory) Write8(addr PhysAddr, v uint8) {
	if h, ok := m.plain(addr, 1); ok {
		h.Write(uint32(addr), 1, uint32(v))
		return
	}
	m.writeSlow(addr, 1, uint32(v))
}

// Write16 stores a little-endian 16-bit value.
func (m *Memory) Write16(addr PhysAddr, v uint16) {
	if h, ok := m.plain(addr, 2); ok {
		h.Write(uint32(addr), 2, uint32(v))
		return
	}
	m.writeSlow(addr, 2, uint32(v))
}

// Write32 stores a little-endian 32-bit value.
func (m *Memory) Write32(addr PhysAddr, v uint32) {
	if h, ok := m.plain(addr, 4); ok {
		h.Write(uint32(addr), 4, v)
		return
	}
	m.writeSlow(addr, 4, v)
}

// Write64 stores a little-endian 64-bit value to RAM (not MMIO).
func (m *Memory) Write64(addr PhysAddr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:])
}

// ReadInto fills b with the RAM starting at addr. Like every bulk
// access it reads RAM only: a device window is not routed to its
// handler.
func (m *Memory) ReadInto(addr PhysAddr, b []byte) {
	m.checkRAM(addr, len(b))
	m.readAt(b, uint64(addr))
}

// ReadBytes copies n bytes of RAM starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr PhysAddr, n int) []byte {
	m.checkRAM(addr, n)
	out := make([]byte, n)
	m.ReadInto(addr, out)
	return out
}

// WriteBytes copies b into RAM at addr.
func (m *Memory) WriteBytes(addr PhysAddr, b []byte) {
	m.checkRAM(addr, len(b))
	m.writeAt(uint64(addr), b)
}

// WriteTo writes all of RAM to w, absent pages as zeros. It implements
// io.WriterTo.
func (m *Memory) WriteTo(w io.Writer) (int64, error) {
	zero := make([]byte, PageSize)
	var total int64
	for i, p := range m.pages {
		b := zero
		if p != nil {
			b = p.data[:]
		}
		n, err := w.Write(b[:min(PageSize, m.size-uint64(i)*PageSize)])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
