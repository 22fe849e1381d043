package cap

import (
	"errors"
	"fmt"
	"sort"
)

// The map-based mapping database the shared index replaced, unchanged
// but for its names: the reference model of
// TestMappingDatabaseMatchesReference. Each space keeps its own map
// from key to node, each node its own children set, and revocation
// order follows map iteration. Only refIOSpace.Destroy is new.

// refNode is one entry in the mapping database: a capability plus its
// position in the delegation tree.
type refNode struct {
	cap      Capability
	space    *refSpace
	sel      Selector
	parent   *refNode
	children map[*refNode]struct{}
	dead     bool
}

// refSpace is one protection domain's capability space.
type refSpace struct {
	name    string
	slots   map[Selector]*refNode
	closed  bool
	nextSel Selector

	// Stats.
	Inserts   uint64
	Delegates uint64
	Revokes   uint64
	Lookups   uint64
}

// newRefSpace creates an empty capability space.
func newRefSpace(name string) *refSpace {
	return &refSpace{name: name, slots: make(map[Selector]*refNode)}
}

// Name returns the space's debugging name.
func (s *refSpace) Name() string { return s.name }

// AllocSel returns an unused selector. Selectors below 1024 are left
// to the VM-exit portal convention (32 per virtual CPU).
func (s *refSpace) AllocSel() Selector {
	if s.nextSel < 1024 {
		s.nextSel = 1024
	}
	for {
		s.nextSel++
		if _, ok := s.slots[s.nextSel]; !ok {
			return s.nextSel
		}
	}
}

// Len returns the number of occupied selectors.
func (s *refSpace) Len() int { return len(s.slots) }

// Selectors returns the occupied selectors in ascending order.
func (s *refSpace) Selectors() []Selector {
	out := make([]Selector, 0, len(s.slots))
	for sel := range s.slots {
		out = append(out, sel)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Insert installs a root capability (a freshly created kernel object)
// at sel. Root capabilities have no parent in the mapping database.
func (s *refSpace) Insert(sel Selector, obj Object, rights Rights) error {
	if s.closed {
		return ErrSpaceClosed
	}
	if _, ok := s.slots[sel]; ok {
		return ErrOccupied
	}
	s.slots[sel] = &refNode{
		cap:      Capability{Obj: obj, Type: obj.ObjectType(), Rights: rights},
		space:    s,
		sel:      sel,
		children: make(map[*refNode]struct{}),
	}
	s.Inserts++
	return nil
}

// Lookup resolves a selector to a capability. The capability value is a
// copy: holders cannot mutate the space through it.
func (s *refSpace) Lookup(sel Selector) (Capability, error) {
	s.Lookups++
	n, ok := s.slots[sel]
	if !ok || n.dead {
		return Capability{}, ErrEmptySlot
	}
	return n.cap, nil
}

// LookupTyped resolves a selector and checks type and rights in one
// step, as the hypercall layer does.
func (s *refSpace) LookupTyped(sel Selector, t ObjType, need Rights) (Capability, error) {
	c, err := s.Lookup(sel)
	if err != nil {
		return Capability{}, err
	}
	if c.Type != t {
		return Capability{}, ErrBadType
	}
	if c.Rights&need != need {
		return Capability{}, ErrNoRights
	}
	return c, nil
}

// LookupObj is the reverse validation used by hypercalls that receive a
// kernel object by reference: it proves the holder names obj somewhere
// in this space with at least the needed rights. The scan is over the
// sorted selector list, so the result is deterministic: the lowest
// selector naming obj with sufficient rights wins. Like Lookup, the
// returned capability is a copy.
func (s *refSpace) LookupObj(obj Object, t ObjType, need Rights) (Capability, error) {
	if s.closed {
		return Capability{}, ErrSpaceClosed
	}
	s.Lookups++
	named := false
	for _, sel := range s.Selectors() {
		n := s.slots[sel]
		if n == nil || n.dead || n.cap.Obj != obj {
			continue
		}
		if n.cap.Type != t {
			continue
		}
		named = true
		if n.cap.Rights&need == need {
			return n.cap, nil
		}
	}
	if named {
		return Capability{}, ErrNoRights
	}
	return Capability{}, ErrEmptySlot
}

// SelectorOf returns the lowest selector naming obj in this space, for
// brokering helpers that need to re-delegate an object they hold.
func (s *refSpace) SelectorOf(obj Object) (Selector, bool) {
	for _, sel := range s.Selectors() {
		if n := s.slots[sel]; n != nil && !n.dead && n.cap.Obj == obj {
			return sel, true
		}
	}
	return 0, false
}

// Delegate copies the capability at srcSel into dst at dstSel, with
// rights reduced by mask, and records the delegation in the mapping
// database. The receiver's capability can later be withdrawn by
// revoking the source (§6).
func (s *refSpace) Delegate(srcSel Selector, dst *refSpace, dstSel Selector, mask Rights) error {
	if s.closed || dst.closed {
		return ErrSpaceClosed
	}
	src, ok := s.slots[srcSel]
	if !ok || src.dead {
		return ErrEmptySlot
	}
	if _, ok := dst.slots[dstSel]; ok {
		return ErrOccupied
	}
	child := &refNode{
		cap: Capability{
			Obj:    src.cap.Obj,
			Type:   src.cap.Type,
			Rights: src.cap.Rights & mask,
		},
		space:    dst,
		sel:      dstSel,
		parent:   src,
		children: make(map[*refNode]struct{}),
	}
	src.children[child] = struct{}{}
	dst.slots[dstSel] = child
	s.Delegates++
	return nil
}

// Revoke withdraws all capabilities that were delegated (transitively)
// from sel. If self is true, the capability at sel itself is removed as
// well. It returns how many capabilities were removed.
func (s *refSpace) Revoke(sel Selector, self bool) (int, error) {
	n, ok := s.slots[sel]
	if !ok || n.dead {
		return 0, ErrEmptySlot
	}
	s.Revokes++
	removed := 0
	var kill func(*refNode)
	kill = func(v *refNode) {
		for c := range v.children {
			kill(c)
		}
		v.children = nil
		v.dead = true
		delete(v.space.slots, v.sel)
		if v.parent != nil {
			delete(v.parent.children, v)
		}
		removed++
	}
	for c := range n.children {
		kill(c)
	}
	if self {
		kill(n)
	}
	return removed, nil
}

// Remove deletes the capability at sel from this space only (close-like
// semantics; delegated children survive and reparent to nothing —
// matching NOVA where removing your own selector does not revoke).
func (s *refSpace) Remove(sel Selector) error {
	n, ok := s.slots[sel]
	if !ok {
		return ErrEmptySlot
	}
	for c := range n.children {
		c.parent = nil
	}
	if n.parent != nil {
		delete(n.parent.children, n)
	}
	n.dead = true
	delete(s.slots, sel)
	return nil
}

// Destroy closes the space, revoking everything delegated from it. The
// sorted selector walk keeps teardown order deterministic; selectors
// already removed by an earlier transitive revoke are skipped, and any
// remaining revocation failures are aggregated instead of dropped so
// the hypercall layer can report them.
func (s *refSpace) Destroy() error {
	var errs []error
	for _, sel := range s.Selectors() {
		if _, ok := s.slots[sel]; !ok {
			continue // revoked transitively by an earlier selector
		}
		if _, err := s.Revoke(sel, true); err != nil && !errors.Is(err, ErrEmptySlot) {
			errs = append(errs, fmt.Errorf("cap: destroy %s sel %d: %w", s.name, sel, err))
		}
	}
	s.closed = true
	return errors.Join(errs...)
}

// refMemNode is one page mapping in the mapping database.
type refMemNode struct {
	frame    uint64 // host frame number
	rights   Rights
	space    *refMemSpace
	page     uint32
	parent   *refMemNode
	children map[*refMemNode]struct{}
}

// refMemSpace is a protection domain's memory space: the page-granular
// mapping from the PD's addresses (host-virtual for applications,
// guest-physical for VMs) to host frames, with full delegation
// tracking. The hypervisor's host page tables are materialized from
// this (§5.3, §6).
type refMemSpace struct {
	name  string
	pages map[uint32]*refMemNode

	// Version increments on any change so cached translations (host
	// TLB, EPT caches) can be invalidated.
	Version uint64
}

// newRefMemSpace creates an empty memory space.
func newRefMemSpace(name string) *refMemSpace {
	return &refMemSpace{name: name, pages: make(map[uint32]*refMemNode)}
}

// Name returns the space's debugging name.
func (m *refMemSpace) Name() string { return m.name }

// Len returns the number of mapped pages.
func (m *refMemSpace) Len() int { return len(m.pages) }

// InsertRoot installs a root mapping of npages pages starting at page
// (address>>12) onto consecutive host frames starting at frame. Used by
// the hypervisor at boot to hand all physical memory to the root
// partition manager.
func (m *refMemSpace) InsertRoot(page uint32, frame uint64, npages int, rights Rights) error {
	for i := 0; i < npages; i++ {
		p := page + uint32(i)
		if _, ok := m.pages[p]; ok {
			return fmt.Errorf("cap: page %#x already mapped in %s", p, m.name)
		}
	}
	for i := 0; i < npages; i++ {
		p := page + uint32(i)
		m.pages[p] = &refMemNode{
			frame: frame + uint64(i), rights: rights, space: m, page: p,
			children: make(map[*refMemNode]struct{}),
		}
	}
	m.Version++
	return nil
}

// Translate resolves a page to its host frame and rights.
func (m *refMemSpace) Translate(page uint32) (uint64, Rights, bool) {
	n, ok := m.pages[page]
	if !ok {
		return 0, 0, false
	}
	return n.frame, n.rights, true
}

// Delegate maps npages pages from srcPage in this space to dstPage in
// dst, with rights reduced by mask. Partial overlap with existing
// mappings in dst fails without side effects.
func (m *refMemSpace) Delegate(srcPage uint32, dst *refMemSpace, dstPage uint32, npages int, mask Rights) error {
	for i := 0; i < npages; i++ {
		if _, ok := m.pages[srcPage+uint32(i)]; !ok {
			return fmt.Errorf("cap: source page %#x not mapped in %s", srcPage+uint32(i), m.name)
		}
		if _, ok := dst.pages[dstPage+uint32(i)]; ok {
			return fmt.Errorf("cap: destination page %#x already mapped in %s", dstPage+uint32(i), dst.name)
		}
	}
	for i := 0; i < npages; i++ {
		src := m.pages[srcPage+uint32(i)]
		child := &refMemNode{
			frame: src.frame, rights: src.rights & mask,
			space: dst, page: dstPage + uint32(i),
			parent: src, children: make(map[*refMemNode]struct{}),
		}
		src.children[child] = struct{}{}
		dst.pages[child.page] = child
	}
	dst.Version++
	return nil
}

// Revoke withdraws all mappings delegated from [page, page+npages), and
// the mappings themselves if self is set. Returns pages removed.
func (m *refMemSpace) Revoke(page uint32, npages int, self bool) int {
	removed := 0
	var kill func(*refMemNode)
	kill = func(n *refMemNode) {
		for c := range n.children {
			kill(c)
		}
		n.children = nil
		delete(n.space.pages, n.page)
		n.space.Version++
		if n.parent != nil {
			delete(n.parent.children, n)
		}
		removed++
	}
	for i := 0; i < npages; i++ {
		n, ok := m.pages[page+uint32(i)]
		if !ok {
			continue
		}
		for c := range n.children {
			kill(c)
		}
		if self {
			kill(n)
		}
	}
	if removed > 0 {
		m.Version++
	}
	return removed
}

// Destroy revokes every mapping delegated from this space and clears it.
func (m *refMemSpace) Destroy() {
	for page := range m.pages {
		m.Revoke(page, 1, true)
	}
}

// refIONode is one I/O port in the delegation tree.
type refIONode struct {
	space    *refIOSpace
	port     uint16
	parent   *refIONode
	children map[*refIONode]struct{}
}

// refIOSpace is a protection domain's I/O permission space: the set of
// x86 ports the domain may access, with delegation tracking (the
// kernel's analogue of the I/O permission bitmap).
type refIOSpace struct {
	name  string
	ports map[uint16]*refIONode
}

// newRefIOSpace creates an empty I/O space.
func newRefIOSpace(name string) *refIOSpace {
	return &refIOSpace{name: name, ports: make(map[uint16]*refIONode)}
}

// Name returns the space's debugging name.
func (s *refIOSpace) Name() string { return s.name }

// Len returns the number of permitted ports.
func (s *refIOSpace) Len() int { return len(s.ports) }

// Allowed reports whether the domain may access port.
func (s *refIOSpace) Allowed(port uint16) bool {
	_, ok := s.ports[port]
	return ok
}

// InsertRoot grants ports [lo, hi] as root entries.
func (s *refIOSpace) InsertRoot(lo, hi uint16) {
	for p := uint32(lo); p <= uint32(hi); p++ {
		if _, ok := s.ports[uint16(p)]; !ok {
			s.ports[uint16(p)] = &refIONode{space: s, port: uint16(p), children: make(map[*refIONode]struct{})}
		}
	}
}

// Delegate grants dst access to ports [lo, hi], which this space must
// hold.
func (s *refIOSpace) Delegate(dst *refIOSpace, lo, hi uint16) error {
	for p := uint32(lo); p <= uint32(hi); p++ {
		if _, ok := s.ports[uint16(p)]; !ok {
			return fmt.Errorf("cap: port %#x not held by %s", p, s.name)
		}
	}
	for p := uint32(lo); p <= uint32(hi); p++ {
		if _, ok := dst.ports[uint16(p)]; ok {
			continue
		}
		src := s.ports[uint16(p)]
		child := &refIONode{space: dst, port: uint16(p), parent: src, children: make(map[*refIONode]struct{})}
		src.children[child] = struct{}{}
		dst.ports[uint16(p)] = child
	}
	return nil
}

// Revoke withdraws delegations of [lo, hi]; self removes this space's
// own access too.
func (s *refIOSpace) Revoke(lo, hi uint16, self bool) int {
	removed := 0
	var kill func(*refIONode)
	kill = func(n *refIONode) {
		for c := range n.children {
			kill(c)
		}
		n.children = nil
		delete(n.space.ports, n.port)
		if n.parent != nil {
			delete(n.parent.children, n)
		}
		removed++
	}
	for p := uint32(lo); p <= uint32(hi); p++ {
		n, ok := s.ports[uint16(p)]
		if !ok {
			continue
		}
		for c := range n.children {
			kill(c)
		}
		if self {
			kill(n)
		}
	}
	return removed
}

// Destroy revokes every port delegated from this space and clears it.
// The map-based IOSpace had none; this one follows refMemSpace.Destroy.
func (s *refIOSpace) Destroy() {
	for port := range s.ports {
		s.Revoke(port, port, true)
	}
}
