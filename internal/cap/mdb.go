package cap

import "slices"

// keyBound bounds every key of the mapping database: 2^20 keys cover
// every page of a 32-bit address space and every 16-bit I/O port, and
// capability selectors share the bound. Past it, inserts and
// delegations fail and lookups miss.
const keyBound = 1 << 20

// node is one entry of the mapping database (§6): a capability, a page
// mapping or an I/O port held by one space, linked to the node it was
// delegated from. Children are kept in delegation order, so the order
// of a recursive revoke is fixed by construction.
type node struct {
	idx      *index // the holding space's index
	parent   *node  // nil for a root
	children []*node

	// Payload: Space uses obj, typ and rights, MemSpace frame and
	// rights; an I/O port carries none.
	obj    Object
	frame  uint64
	typ    ObjType
	key    uint32 // selector, page or port
	rights Rights
}

// index holds one space's nodes by key in a two-level 1024×1024 table,
// walked in key order.
type index struct {
	dir [1024]*[1024]*node
	len int
	// version counts removals; MemSpace also bumps it once per call
	// that maps or revokes pages (see MemSpace.Version).
	version uint64
}

// get returns the node at key, or nil.
func (x *index) get(key uint32) *node {
	if key >= keyBound {
		return nil
	}
	if l := x.dir[key>>10&1023]; l != nil {
		return l[key&1023]
	}
	return nil
}

// next returns the node with the smallest key at or above key, or nil.
func (x *index) next(key uint32) *node {
	for ; key < keyBound; key = key&^1023 + 1024 {
		if l := x.dir[key>>10&1023]; l != nil {
			for i := key & 1023; i < 1024; i++ {
				if n := l[i]; n != nil {
					return n
				}
			}
		}
	}
	return nil
}

// insert indexes n at key as a root. The caller has checked that key
// is below keyBound and free.
func (x *index) insert(key uint32, n *node) {
	l := x.dir[key>>10&1023]
	if l == nil {
		l = new([1024]*node)
		x.dir[key>>10&1023] = l
	}
	l[key&1023] = n
	n.idx, n.key = x, key
	x.len++
}

// delegate indexes n at key as the youngest child of parent.
func (x *index) delegate(key uint32, n, parent *node) {
	x.insert(key, n)
	n.parent = parent
	parent.children = append(parent.children, n)
}

// revoke removes every node delegated from n, depth first in
// delegation order, and n itself if self. It returns how many nodes it
// removed.
func (n *node) revoke(self bool) int {
	removed := 0
	for _, c := range n.children {
		c.parent = nil // n drops all its children at once below
		removed += c.revoke(true)
	}
	n.children = nil
	if self {
		n.remove()
		removed++
	}
	return removed
}

// remove drops n alone from the database; its children become roots.
func (n *node) remove() {
	for _, c := range n.children {
		c.parent = nil
	}
	n.children = nil
	if p := n.parent; p != nil {
		i := slices.Index(p.children, n)
		p.children = slices.Delete(p.children, i, i+1)
		n.parent = nil
	}
	x := n.idx
	x.dir[n.key>>10&1023][n.key&1023] = nil
	x.len--
	x.version++
}

// revokeRange revokes the nodes with keys in [lo, end), in key order;
// see node.revoke.
func (x *index) revokeRange(lo, end uint64, self bool) int {
	removed := 0
	for key := lo; key < end && key < keyBound; key++ {
		if n := x.get(uint32(key)); n != nil {
			removed += n.revoke(self)
		}
	}
	return removed
}

// destroy revokes every node of x, in key order.
func (x *index) destroy() {
	for n := x.next(0); n != nil; n = x.next(n.key + 1) {
		n.revoke(true)
	}
}
