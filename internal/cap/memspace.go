package cap

import "fmt"

// PageSize of the memory space (matches the platform).
const PageSize = 4096

// MemSpace is a protection domain's memory space: the page-granular
// mapping from the PD's addresses (host-virtual for applications,
// guest-physical for VMs) to host frames, with full delegation
// tracking. The hypervisor's host page tables are materialized from
// this (§5.3, §6).
type MemSpace struct {
	name string
	idx  index
}

// NewMemSpace creates an empty memory space.
func NewMemSpace(name string) *MemSpace {
	return &MemSpace{name: name}
}

// Name returns the space's debugging name.
func (m *MemSpace) Name() string { return m.name }

// Len returns the number of mapped pages.
func (m *MemSpace) Len() int { return m.idx.len }

// Version increments on any change so cached translations (host TLB,
// EPT caches) can be invalidated.
func (m *MemSpace) Version() uint64 { return m.idx.version }

// pageRange checks that [page, page+npages) lies inside the space.
func pageRange(page uint32, npages int) error {
	if npages < 0 || uint64(page)+uint64(npages) > keyBound {
		return fmt.Errorf("cap: pages %#x+%d outside the 4 GiB memory space", page, npages)
	}
	return nil
}

// InsertRoot installs a root mapping of npages pages starting at page
// (address>>12) onto consecutive host frames starting at frame, as one
// node. Used by the hypervisor at boot to hand all physical memory to
// the root partition manager.
func (m *MemSpace) InsertRoot(page uint32, frame uint64, npages int, rights Rights) error {
	if err := pageRange(page, npages); err != nil {
		return err
	}
	end := page + uint32(npages)
	if p := m.idx.firstHeld(page, end); p < end {
		return fmt.Errorf("cap: page %#x already mapped in %s", p, m.name)
	}
	if npages > 0 {
		m.idx.insert(page, uint32(npages), &node{frame: frame, rights: rights})
	}
	m.idx.version++
	return nil
}

// Translate resolves a page to its host frame and rights.
func (m *MemSpace) Translate(page uint32) (uint64, Rights, bool) {
	n := m.idx.get(page)
	if n == nil {
		return 0, 0, false
	}
	return n.frame + uint64(page-n.key), n.rights, true
}

// Delegate maps npages pages from srcPage in this space to dstPage in
// dst, with rights reduced by mask, as one child per source node the
// range crosses. Partial overlap with existing mappings in dst fails
// without side effects.
func (m *MemSpace) Delegate(srcPage uint32, dst *MemSpace, dstPage uint32, npages int, mask Rights) error {
	if err := pageRange(srcPage, npages); err != nil {
		return err
	}
	if err := pageRange(dstPage, npages); err != nil {
		return err
	}
	n := uint32(npages)
	missing := m.idx.firstFree(srcPage, srcPage+n) - srcPage
	held := dst.idx.firstHeld(dstPage, dstPage+n) - dstPage
	if missing < n && missing <= held {
		return fmt.Errorf("cap: source page %#x not mapped in %s", srcPage+missing, m.name)
	}
	if held < n {
		return fmt.Errorf("cap: destination page %#x already mapped in %s", dstPage+held, dst.name)
	}
	for off := uint32(0); off < n; {
		at := srcPage + off
		src := m.idx.get(at)
		run := min(src.key+src.n-at, n-off)
		dst.idx.delegate(dstPage+off, run, &node{frame: src.frame + uint64(at-src.key), rights: src.rights & mask}, src, at)
		off += run
	}
	dst.idx.version++
	return nil
}

// Revoke withdraws all mappings delegated from [page, page+npages), and
// the mappings themselves if self is set. Returns pages removed.
func (m *MemSpace) Revoke(page uint32, npages int, self bool) int {
	removed := m.idx.revokeRange(uint64(page), uint64(page)+uint64(max(npages, 0)), self)
	if removed > 0 {
		m.idx.version++
	}
	return removed
}

// Destroy revokes every mapping delegated from this space and clears it.
func (m *MemSpace) Destroy() { m.idx.destroy() }

// IOSpace is a protection domain's I/O permission space: the set of
// x86 ports the domain may access, with delegation tracking (the
// kernel's analogue of the I/O permission bitmap).
type IOSpace struct {
	name string
	idx  index
}

// NewIOSpace creates an empty I/O space.
func NewIOSpace(name string) *IOSpace {
	return &IOSpace{name: name}
}

// Name returns the space's debugging name.
func (s *IOSpace) Name() string { return s.name }

// Len returns the number of permitted ports.
func (s *IOSpace) Len() int { return s.idx.len }

// Allowed reports whether the domain may access port.
func (s *IOSpace) Allowed(port uint16) bool { return s.idx.get(uint32(port)) != nil }

// InsertRoot grants ports [lo, hi] as root entries, one node per run
// of ports the space does not hold yet; held ports are left as they are.
func (s *IOSpace) InsertRoot(lo, hi uint16) {
	for p, end := uint32(lo), uint32(hi)+1; p < end; {
		if n := s.idx.get(p); n != nil {
			p = n.key + n.n
			continue
		}
		free := s.idx.firstHeld(p, end)
		s.idx.insert(p, free-p, &node{})
		p = free
	}
}

// Delegate grants dst access to ports [lo, hi], which this space must
// hold, one node per run of ports that one source node holds and dst
// does not hold yet; ports dst holds are left as they are.
func (s *IOSpace) Delegate(dst *IOSpace, lo, hi uint16) error {
	end := uint32(hi) + 1
	if p := s.idx.firstFree(uint32(lo), end); p < end {
		return fmt.Errorf("cap: port %#x not held by %s", p, s.name)
	}
	for p := uint32(lo); p < end; {
		if n := dst.idx.get(p); n != nil {
			p = n.key + n.n
			continue
		}
		src := s.idx.get(p)
		to := min(dst.idx.firstHeld(p, end), src.key+src.n)
		dst.idx.delegate(p, to-p, &node{}, src, p)
		p = to
	}
	return nil
}

// Revoke withdraws delegations of [lo, hi]; self removes this space's
// own access too.
func (s *IOSpace) Revoke(lo, hi uint16, self bool) int {
	return s.idx.revokeRange(uint64(lo), uint64(hi)+1, self)
}

// Destroy revokes every port delegated from this space and clears it.
func (s *IOSpace) Destroy() { s.idx.destroy() }
