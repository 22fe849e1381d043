package cap

import "slices"

// keyBound bounds every key of the mapping database: 2^20 keys cover
// every page of a 32-bit address space and every 16-bit I/O port, and
// capability selectors share the bound. Past it, inserts and
// delegations fail and lookups miss.
const keyBound = 1 << 20

// node is one entry of the mapping database (§6): a capability, or a
// run of consecutive pages or I/O ports, held by one space and linked
// to the node it was delegated from. A node holds the keys
// [key, key+n) and derives them from its parent's [src, src+n); a
// capability holds one key. Children are kept in delegation order, so
// the order of a recursive revoke is fixed by construction. A revoke
// that ends inside a node cuts it there first (node.cut).
type node struct {
	idx      *index // the holding space's index
	parent   *node  // nil for a root
	children []*node

	// Payload: Space uses obj, typ and rights, MemSpace frame (the
	// frame of page key) and rights; an I/O port carries none.
	obj    Object
	frame  uint64
	typ    ObjType
	key    uint32 // first selector, page or port
	n      uint32 // number of keys held
	src    uint32 // the parent's key that key was delegated from
	rights Rights
}

// block is one 1024-key block of an index: empty, held entirely by
// one node (whole), or a leaf of one slot per key.
type block struct {
	whole *node
	leaf  *[1024]*node
}

// index holds one space's nodes by key in a two-level 1024×1024 table,
// walked in key order. Every slot of a node's run points at the node.
type index struct {
	dir [1024]block
	len int // keys held
	// top is one past the highest key ever stored, never lowered:
	// every slot from top on is empty, so a walk stops there.
	top uint32
	// version counts removals; MemSpace also bumps it once per call
	// that maps or revokes pages (see MemSpace.Version).
	version uint64
}

// get returns the node holding key, or nil.
func (x *index) get(key uint32) *node {
	if key >= keyBound {
		return nil
	}
	b := &x.dir[key>>10&1023]
	if b.leaf != nil {
		return b.leaf[key&1023]
	}
	return b.whole
}

// next returns the node holding the smallest held key at or above key,
// or nil. It visits no slot at or past top.
func (x *index) next(key uint32) *node {
	for ; key < x.top; key = key&^1023 + 1024 {
		b := &x.dir[key>>10&1023]
		if b.whole != nil {
			return b.whole
		}
		if b.leaf != nil {
			end := min(x.top-(key&^1023), 1024) // slots below top
			for _, n := range b.leaf[key&1023 : end] {
				if n != nil {
					return n
				}
			}
		}
	}
	return nil
}

// firstHeld returns the smallest key in [lo, end) that x holds, or end.
func (x *index) firstHeld(lo, end uint32) uint32 {
	if n := x.next(lo); n != nil {
		return min(max(n.key, lo), end)
	}
	return end
}

// firstFree returns the smallest key in [lo, end) that x does not
// hold, or end.
func (x *index) firstFree(lo, end uint32) uint32 {
	for lo < end {
		n := x.get(lo)
		if n == nil {
			return lo
		}
		lo = n.key + n.n
	}
	return end
}

// set points the slots of [key, key+n) at nd, or clears them if nd is
// nil. A block the range covers is stored as nd alone; a block it cuts
// gets a leaf, filled from the block's whole node if it had one.
func (x *index) set(key, n uint32, nd *node) {
	x.top = max(x.top, key+n)
	for end := key + n; key < end; {
		b := &x.dir[key>>10&1023]
		lo := key & 1023
		hi := min(1024, lo+end-key)
		key += hi - lo
		switch {
		case lo == 0 && hi == 1024:
			*b = block{whole: nd}
			continue
		case b.leaf == nil && b.whole == nd:
			continue
		case b.leaf == nil:
			b.leaf = new([1024]*node)
			if b.whole != nil {
				for i := range b.leaf {
					b.leaf[i] = b.whole
				}
				b.whole = nil
			}
		}
		for i := lo; i < hi; i++ {
			b.leaf[i] = nd
		}
	}
}

// insert indexes nd as a root holding [key, key+n). The caller has
// checked that the range is below keyBound and free.
func (x *index) insert(key, n uint32, nd *node) {
	nd.idx, nd.key, nd.n = x, key, n
	x.set(key, n, nd)
	x.len += int(n)
}

// delegate indexes nd at [key, key+n) as the youngest child of parent,
// derived from parent's keys [src, src+n).
func (x *index) delegate(key, n uint32, nd, parent *node, src uint32) {
	x.insert(key, n, nd)
	nd.parent, nd.src = parent, src
	parent.children = append(parent.children, nd)
}

// cut splits n at key at, with n.key < at < n.key+n.n, into n, which
// keeps [n.key, at), and the returned tail [at, n.key+n.n), which goes
// right after n among its parent's children. Children derived from
// the tail move to it; a child that straddles at is cut the same way.
// A cut changes no translation, so the version stays.
func (n *node) cut(at uint32) *node {
	t := n.split(at)
	if p := n.parent; p != nil {
		p.children = slices.Insert(p.children, slices.Index(p.children, n)+1, t)
	}
	return t
}

// split is cut without linking the tail among the parent's children.
func (n *node) split(at uint32) *node {
	off := at - n.key
	t := &node{idx: n.idx, parent: n.parent, obj: n.obj, frame: n.frame + uint64(off), typ: n.typ,
		key: at, n: n.n - off, src: n.src + off, rights: n.rights}
	n.n = off
	n.idx.set(at, t.n, t)
	head := n.children[:0]
	for _, c := range n.children {
		switch {
		case c.src+c.n <= at:
			head = append(head, c)
			continue
		case c.src < at:
			head = append(head, c)
			c = c.split(c.key + at - c.src)
		}
		c.parent = t
		t.children = append(t.children, c)
	}
	clear(n.children[len(head):])
	n.children = head
	return t
}

// isolate cuts n so that one node holds exactly [from, to), a range
// inside n, and returns that node.
func (n *node) isolate(from, to uint32) *node {
	if from > n.key {
		n = n.cut(from)
	}
	if to < n.key+n.n {
		n.cut(to)
	}
	return n
}

// revoke removes every node delegated from n, depth first in
// delegation order, and n itself if self. It returns how many keys it
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
		removed += int(n.n)
	}
	return removed
}

// revokeChildren revokes, in delegation order, the parts of n's
// children derived from n's keys [from, to), with their subtrees. It
// returns how many keys it removed.
func (n *node) revokeChildren(from, to uint32) int {
	removed := 0
	for i := 0; i < len(n.children); i++ {
		c := n.children[i]
		switch {
		case c.src >= to || c.src+c.n <= from:
			continue
		case c.src < from:
			c.cut(c.key + from - c.src) // the tail is next
			continue
		case c.src+c.n > to:
			c.cut(c.key + to - c.src)
		}
		removed += c.revoke(true)
		i--
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
	x.set(n.key, n.n, nil)
	x.len -= int(n.n)
	x.version++
}

// revokeRange revokes what was delegated from the keys in [lo, end),
// and with self those keys too, in key order; see node.revoke. A node
// the range ends inside is cut there, so only its covered part goes.
// It returns how many keys it removed.
func (x *index) revokeRange(lo, end uint64, self bool) int {
	end = min(end, keyBound)
	removed := 0
	for key := lo; key < end; {
		n := x.next(uint32(key))
		if n == nil || uint64(n.key) >= end {
			break
		}
		from, to := max(uint32(key), n.key), uint32(min(end, uint64(n.key+n.n)))
		key = uint64(to)
		if self {
			removed += n.isolate(from, to).revoke(true)
		} else {
			removed += n.revokeChildren(from, to)
		}
	}
	return removed
}

// destroy revokes every node of x, in key order.
func (x *index) destroy() {
	for n := x.next(0); n != nil; n = x.next(n.key + n.n) {
		n.revoke(true)
	}
}
