package cap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diffGeom says where a diffState draws its keys and how long its
// ranges get. Each draw falls inside one of three regions of span keys.
type diffGeom struct {
	keys  [3]uint32 // the first selector or page of each region
	ports [3]uint32 // the first port of each region
	span  uint32
	// memRun, portRun and revokeRun are the longest ranges drawn to
	// grant or delegate pages, ports, and to revoke either.
	memRun, portRun, revokeRun int
	// caps draws capability operations too.
	caps bool
	// fit ends a delegation's source range where the run of held keys
	// it starts in ends, and a destination range where the run of free
	// keys ends, so that most delegations succeed and chain.
	fit bool
}

// shortGeom is the geometry of TestMappingDatabaseMatchesReference:
// ranges of a few keys in 32-key regions at the bottom of the key
// space, straddling the first leaf boundary of the index, and at the
// top of the key space; for ports, low ports, the serial ports around
// 0x3f8 and the top of the port space.
var shortGeom = diffGeom{
	keys:  [3]uint32{0, 1008, keyBound - 32},
	ports: [3]uint32{0, 0x3f0, 0x10000 - 32},
	span:  32, memRun: 5, portRun: 6, revokeRun: 8, caps: true,
}

// longGeom is the geometry of TestMappingDatabaseLongRunsMatchReference:
// memory and port ranges of up to 4096 keys in regions of eight
// 1024-key blocks, aligned at the bottom and the top of each key space
// and unaligned in between, so that runs cover and cut whole blocks.
var longGeom = diffGeom{
	keys:  [3]uint32{0, 0x40000 - 700, keyBound - 8192},
	ports: [3]uint32{0, 0x8000 - 700, 0x10000 - 8192},
	span:  8192, memRun: 4096, portRun: 4096, revokeRun: 4096, fit: true,
}

// diffState pairs every space with its reference and drives both
// through the same operations.
type diffState struct {
	t   *testing.T
	rng *rand.Rand
	g   diffGeom
	op  string // the last operation, for failure messages
	ops int    // operations so far

	caps    []*Space
	refCaps []*refSpace
	mem     []*MemSpace
	refMem  []*refMemSpace
	io      []*IOSpace
	refIO   []*refIOSpace

	objs []*fakeObj
	// memVer and refMemVer are each memory space's Version after the
	// previous operation.
	memVer, refMemVer []uint64
	// seq maps each space's index to the operation that delegated each
	// key it holds, so that check can see delegation order.
	seq map[*index]map[uint32]int
	// depth is the longest delegation chain and whole the most blocks
	// held whole that check has seen, to show what the draws reach.
	depth, whole int
}

func newDiffState(t *testing.T, rng *rand.Rand, g diffGeom, spaces int) *diffState {
	d := &diffState{t: t, rng: rng, g: g, seq: make(map[*index]map[uint32]int)}
	for i := 0; i < spaces; i++ {
		name := fmt.Sprint("s", i)
		d.caps = append(d.caps, NewSpace(name))
		d.refCaps = append(d.refCaps, newRefSpace(name))
		d.mem = append(d.mem, NewMemSpace(name))
		d.refMem = append(d.refMem, newRefMemSpace(name))
		d.io = append(d.io, NewIOSpace(name))
		d.refIO = append(d.refIO, newRefIOSpace(name))
	}
	d.memVer = make([]uint64, spaces)
	d.refMemVer = make([]uint64, spaces)
	for _, typ := range []ObjType{ObjPD, ObjEC, ObjPortal, ObjSemaphore} {
		d.objs = append(d.objs, &fakeObj{t: typ})
	}
	return d
}

// keyRange draws a range [key, key+n) of at most maxLen keys inside
// one region. Three draws in four start at a held key, if there is one,
// so that most delegations and revocations find something.
func (d *diffState) keyRange(regions [3]uint32, held []uint32, maxLen int) (key uint32, n int) {
	key = regions[d.rng.Intn(len(regions))] + uint32(d.rng.Intn(int(d.g.span)))
	if len(held) > 0 && d.rng.Intn(4) > 0 {
		key = held[d.rng.Intn(len(held))]
	}
	room := 1
	for _, r := range regions {
		if key >= r && key < r+d.g.span {
			room = int(r + d.g.span - key)
		}
	}
	return key, d.rng.Intn(min(maxLen, room) + 1)
}

// source draws the source range of a delegation from space x, given
// the keys x holds: a keyRange that, with fit, starts half the time in
// a run x was delegated, so that delegations chain, and ends where the
// run of held keys it starts in ends.
func (d *diffState) source(x *index, regions [3]uint32, held []uint32, maxLen int) (key uint32, n int) {
	if d.g.fit && d.rng.Intn(2) == 0 {
		var derived []uint32
		for _, k := range held {
			if x.get(k).parent != nil {
				derived = append(derived, k)
			}
		}
		if len(derived) > 0 {
			held = derived
		}
	}
	key, n = d.keyRange(regions, held, maxLen)
	if i, found := slices.BinarySearch(held, key); d.g.fit && found {
		run := 1
		for i+run < len(held) && held[i+run] == key+uint32(run) {
			run++
		}
		n = min(n, run)
	}
	return key, n
}

// dest draws the destination range of a memory delegation, given the
// keys the destination holds: a keyRange that, with fit, ends where
// the run of free keys it starts in ends.
func (d *diffState) dest(regions [3]uint32, held []uint32, maxLen int) (key uint32, n int) {
	key, n = d.keyRange(regions, nil, maxLen)
	if i, found := slices.BinarySearch(held, key); d.g.fit && !found && i < len(held) {
		n = min(n, int(held[i]-key))
	}
	return key, n
}

// portRange turns a drawn range [k, k+n) of ports into [lo, hi]; an
// empty draw gives hi < lo.
func portRange(k uint32, n int) (lo, hi uint16) {
	if n == 0 {
		return uint16(k) | 1, uint16(k) &^ 1
	}
	return uint16(k), uint16(k + uint32(n) - 1)
}

func (d *diffState) sel(held []uint32) Selector {
	k, _ := d.keyRange(d.g.keys, held, 0)
	return Selector(k)
}

// heldSels, heldPages and heldPorts list the keys space a holds, in
// ascending order.
func (d *diffState) heldSels(a int) (keys []uint32) {
	for _, sel := range d.refCaps[a].Selectors() {
		keys = append(keys, uint32(sel))
	}
	return keys
}

func (d *diffState) heldPages(a int) (keys []uint32) {
	for p := range d.refMem[a].pages {
		keys = append(keys, p)
	}
	slices.Sort(keys)
	return keys
}

func (d *diffState) heldPorts(a int) (keys []uint32) {
	for p := range d.refIO[a].ports {
		keys = append(keys, uint32(p))
	}
	slices.Sort(keys)
	return keys
}

func (d *diffState) rights() Rights { return Rights(d.rng.Intn(int(RightsAll) + 1)) }

func (d *diffState) space() int { return d.rng.Intn(len(d.caps)) }

func (d *diffState) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("after %s: %s", d.op, fmt.Sprintf(format, args...))
}

// delegated records that operation d.ops delegated the keys of
// [key, key+n) that x did not hold before (held lists those it did).
func (d *diffState) delegated(x *index, key uint32, n int, held []uint32) {
	m := d.seq[x]
	if m == nil {
		m = make(map[uint32]int)
		d.seq[x] = m
	}
	for k := key; k < key+uint32(n); k++ {
		if _, ok := slices.BinarySearch(held, k); !ok {
			m[k] = d.ops
		}
	}
}

// step applies one random operation to both implementations and
// compares the results.
func (d *diffState) step() {
	d.t.Helper()
	d.ops++
	a, b := d.space(), d.space()
	first := 0
	if !d.g.caps {
		first = 42 // the memory and port operations
	}
	switch r := first + d.rng.Intn(100-first); {
	case r < 12:
		sel, obj, rights := d.sel(nil), d.objs[d.rng.Intn(len(d.objs))], d.rights()
		d.op = fmt.Sprintf("caps[%d].Insert(%d, %v, %v)", a, sel, obj.t, rights)
		d.sameErr(d.caps[a].Insert(sel, obj, rights), d.refCaps[a].Insert(sel, obj, rights))
	case r < 14:
		d.op = fmt.Sprintf("caps[%d].AllocSel+Insert", a)
		sel, ref := d.caps[a].AllocSel(), d.refCaps[a].AllocSel()
		if sel != ref {
			d.fatalf("AllocSel = %d, reference %d", sel, ref)
		}
		d.sameErr(d.caps[a].Insert(sel, d.objs[0], RightsAll), d.refCaps[a].Insert(sel, d.objs[0], RightsAll))
	case r < 30:
		src, dst, mask := d.sel(d.heldSels(a)), d.sel(nil), d.rights()
		d.op = fmt.Sprintf("caps[%d].Delegate(%d, caps[%d], %d, %v)", a, src, b, dst, mask)
		err := d.caps[a].Delegate(src, d.caps[b], dst, mask)
		d.sameErr(err, d.refCaps[a].Delegate(src, d.refCaps[b], dst, mask))
		if err == nil {
			d.delegated(&d.caps[b].idx, uint32(dst), 1, nil)
		}
	case r < 37:
		sel, self := d.sel(d.heldSels(a)), d.rng.Intn(2) == 0
		d.op = fmt.Sprintf("caps[%d].Revoke(%d, %v)", a, sel, self)
		n, err := d.caps[a].Revoke(sel, self)
		rn, rerr := d.refCaps[a].Revoke(sel, self)
		d.sameErr(err, rerr)
		if n != rn {
			d.fatalf("revoked %d, reference %d", n, rn)
		}
	case r < 41:
		sel := d.sel(d.heldSels(a))
		d.op = fmt.Sprintf("caps[%d].Remove(%d)", a, sel)
		d.sameErr(d.caps[a].Remove(sel), d.refCaps[a].Remove(sel))
	case r < 42:
		d.op = fmt.Sprintf("caps[%d].Destroy", a)
		d.sameErr(d.caps[a].Destroy(), d.refCaps[a].Destroy())
		d.check()
		// A closed space refuses new work alike; then start afresh.
		d.sameErr(d.caps[a].Insert(1, d.objs[0], RightsAll), d.refCaps[a].Insert(1, d.objs[0], RightsAll))
		_, err := d.caps[a].LookupObj(d.objs[0], ObjPD, 0)
		_, rerr := d.refCaps[a].LookupObj(d.objs[0], ObjPD, 0)
		d.sameErr(err, rerr)
		d.caps[a], d.refCaps[a] = NewSpace("fresh"), newRefSpace("fresh")
	case r < 54:
		page, n := d.keyRange(d.g.keys, nil, d.g.memRun)
		frame, rights := uint64(d.rng.Intn(1<<20)), d.rights()
		d.op = fmt.Sprintf("mem[%d].InsertRoot(%#x, %#x, %d, %v)", a, page, frame, n, rights)
		d.sameErr(d.mem[a].InsertRoot(page, frame, n, rights), d.refMem[a].InsertRoot(page, frame, n, rights))
	case r < 70:
		src, n := d.source(&d.mem[a].idx, d.g.keys, d.heldPages(a), d.g.memRun)
		dst, dn := d.dest(d.g.keys, d.heldPages(b), d.g.memRun)
		n, mask := min(n, dn), d.rights()
		d.op = fmt.Sprintf("mem[%d].Delegate(%#x, mem[%d], %#x, %d, %v)", a, src, b, dst, n, mask)
		err := d.mem[a].Delegate(src, d.mem[b], dst, n, mask)
		d.sameErr(err, d.refMem[a].Delegate(src, d.refMem[b], dst, n, mask))
		if err == nil {
			d.delegated(&d.mem[b].idx, dst, n, nil)
		}
	case r < 77:
		page, n := d.keyRange(d.g.keys, d.heldPages(a), d.g.revokeRun)
		self := d.rng.Intn(2) == 0
		d.op = fmt.Sprintf("mem[%d].Revoke(%#x, %d, %v)", a, page, n, self)
		if got, want := d.mem[a].Revoke(page, n, self), d.refMem[a].Revoke(page, n, self); got != want {
			d.fatalf("revoked %d, reference %d", got, want)
		}
	case r < 78:
		d.op = fmt.Sprintf("mem[%d].Destroy", a)
		d.mem[a].Destroy()
		d.refMem[a].Destroy()
	case r < 85:
		lo, hi := portRange(d.keyRange(d.g.ports, nil, d.g.portRun))
		d.op = fmt.Sprintf("io[%d].InsertRoot(%#x, %#x)", a, lo, hi)
		d.io[a].InsertRoot(lo, hi)
		d.refIO[a].InsertRoot(lo, hi)
	case r < 93:
		lo, hi := portRange(d.source(&d.io[a].idx, d.g.ports, d.heldPorts(a), d.g.portRun))
		held := d.heldPorts(b)
		d.op = fmt.Sprintf("io[%d].Delegate(io[%d], %#x, %#x)", a, b, lo, hi)
		err := d.io[a].Delegate(d.io[b], lo, hi)
		d.sameErr(err, d.refIO[a].Delegate(d.refIO[b], lo, hi))
		if err == nil && lo <= hi {
			d.delegated(&d.io[b].idx, uint32(lo), int(hi-lo)+1, held)
		}
	case r < 99:
		lo, hi := portRange(d.keyRange(d.g.ports, d.heldPorts(a), d.g.revokeRun))
		self := d.rng.Intn(2) == 0
		d.op = fmt.Sprintf("io[%d].Revoke(%#x, %#x, %v)", a, lo, hi, self)
		if got, want := d.io[a].Revoke(lo, hi, self), d.refIO[a].Revoke(lo, hi, self); got != want {
			d.fatalf("revoked %d, reference %d", got, want)
		}
	default:
		d.op = fmt.Sprintf("io[%d].Destroy", a)
		d.io[a].Destroy()
		d.refIO[a].Destroy()
	}
	d.check()
}

func (d *diffState) sameErr(err, ref error) {
	d.t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(ref) {
		d.fatalf("error %v, reference %v", err, ref)
	}
}

// check compares every observable of every space with the reference,
// and checks the structure of every index.
func (d *diffState) check() {
	d.t.Helper()
	for i, s := range d.caps {
		d.checkIndex(fmt.Sprint("caps[", i, "]"), &s.idx, d.g.keys)
		if !d.g.caps {
			continue
		}
		ref := d.refCaps[i]
		if s.Len() != ref.Len() || !slices.Equal(s.Selectors(), ref.Selectors()) {
			d.fatalf("caps[%d]: selectors %v, reference %v", i, s.Selectors(), ref.Selectors())
		}
		for _, base := range d.g.keys {
			for sel := Selector(base); sel < Selector(base+d.g.span); sel++ {
				c, err := s.Lookup(sel)
				rc, rerr := ref.Lookup(sel)
				if c != rc || err != rerr {
					d.fatalf("caps[%d].Lookup(%d) = %v, %v; reference %v, %v", i, sel, c, err, rc, rerr)
				}
				typ, need := ObjType(1+d.rng.Intn(5)), d.rights()
				c, err = s.LookupTyped(sel, typ, need)
				rc, rerr = ref.LookupTyped(sel, typ, need)
				if c != rc || err != rerr {
					d.fatalf("caps[%d].LookupTyped(%d, %v, %v) = %v, %v; reference %v, %v", i, sel, typ, need, c, err, rc, rerr)
				}
			}
		}
		for _, obj := range d.objs {
			sel, ok := s.SelectorOf(obj)
			rsel, rok := ref.SelectorOf(obj)
			if sel != rsel || ok != rok {
				d.fatalf("caps[%d].SelectorOf(%v) = %d, %v; reference %d, %v", i, obj.t, sel, ok, rsel, rok)
			}
			typ := obj.t
			if d.rng.Intn(4) == 0 {
				typ = ObjType(1 + d.rng.Intn(5))
			}
			need := d.rights()
			c, err := s.LookupObj(obj, typ, need)
			rc, rerr := ref.LookupObj(obj, typ, need)
			if c != rc || err != rerr {
				d.fatalf("caps[%d].LookupObj(%v, %v, %v) = %v, %v; reference %v, %v", i, obj.t, typ, need, c, err, rc, rerr)
			}
		}
	}
	for i, m := range d.mem {
		nodes := d.checkIndex(fmt.Sprint("mem[", i, "]"), &m.idx, d.g.keys)
		ref := d.refMem[i]
		if m.Len() != ref.Len() {
			d.fatalf("mem[%d]: %d pages, reference %d", i, m.Len(), ref.Len())
		}
		for _, p := range d.probes(d.g.keys, nodes) {
			f, r, ok := m.Translate(p)
			rf, rr, rok := ref.Translate(p)
			if f != rf || r != rr || ok != rok {
				d.fatalf("mem[%d].Translate(%#x) = %#x, %v, %v; reference %#x, %v, %v", i, p, f, r, ok, rf, rr, rok)
			}
		}
		// Cached translations are flushed on a version change, so the
		// version must change exactly when the reference's does.
		if changed, refChanged := m.Version() != d.memVer[i], ref.Version != d.refMemVer[i]; changed != refChanged {
			d.fatalf("mem[%d]: version changed %v, reference %v", i, changed, refChanged)
		}
		d.memVer[i], d.refMemVer[i] = m.Version(), ref.Version
	}
	for i, s := range d.io {
		nodes := d.checkIndex(fmt.Sprint("io[", i, "]"), &s.idx, d.g.ports)
		ref := d.refIO[i]
		if s.Len() != ref.Len() {
			d.fatalf("io[%d]: %d ports, reference %d", i, s.Len(), ref.Len())
		}
		for _, p := range d.probes(d.g.ports, nodes) {
			if got, want := s.Allowed(uint16(p)), ref.Allowed(uint16(p)); got != want {
				d.fatalf("io[%d].Allowed(%#x) = %v, reference %v", i, uint16(p), got, want)
			}
		}
	}
}

// probes returns the keys of the regions that check compares: every
// key of a short geometry's regions; of a long geometry's, every 16th
// key from a random offset, and the keys next to both ends of every
// node, where a wrong cut would show.
func (d *diffState) probes(regions [3]uint32, nodes []*node) (keys []uint32) {
	stride, off := max(1, d.g.span/512), uint32(0)
	if stride > 1 {
		off = uint32(d.rng.Intn(int(stride)))
		for _, n := range nodes {
			for _, end := range []uint32{n.key, n.key + n.n} {
				for k := max(end, 2) - 2; k < end+2; k++ {
					keys = append(keys, k)
				}
			}
		}
	}
	for _, r := range regions {
		for k := r + off; k < r+d.g.span; k += stride {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkIndex checks the structure of x and returns its nodes in key
// order. Walking the blocks the regions touch (all keys lie there),
// every slot must point at the node that holds its key: a run of slots
// starts at its node's first key and ends at its last, and a whole
// block's node holds the whole block. Each child's source range must
// lie inside its parent, children must be in delegation order, and len
// must be the sum of the node lengths.
func (d *diffState) checkIndex(name string, x *index, regions [3]uint32) (nodes []*node) {
	d.t.Helper()
	var blks []uint32
	for _, r := range regions {
		for b := r >> 10; b <= (r+d.g.span-1)>>10; b++ {
			blks = append(blks, b)
		}
	}
	slices.Sort(blks)
	var cur *node // the node holding the key before k, if any
	whole := 0
	for _, blk := range slices.Compact(blks) {
		b, base := &x.dir[blk], blk<<10
		if cur != nil && cur.key+cur.n <= base {
			cur = nil
		}
		if b.whole != nil && b.leaf != nil {
			d.fatalf("%s: block %#x is whole and a leaf", name, base)
		}
		if n := b.whole; n != nil {
			whole++
			if n != cur && n.key != base || n.key+n.n < base+1024 {
				d.fatalf("%s: block %#x held whole by [%#x, +%d)", name, base, n.key, n.n)
			}
			if n != cur {
				cur = n
				nodes = append(nodes, n)
			}
			continue
		}
		if b.leaf == nil {
			if cur != nil {
				d.fatalf("%s: block %#x of [%#x, +%d) is empty", name, base, cur.key, cur.n)
			}
			continue
		}
		for i, n := range b.leaf {
			k := base + uint32(i)
			if cur != nil && k == cur.key+cur.n {
				cur = nil
			}
			if n == cur {
				continue
			}
			if cur != nil || n.key != k {
				d.fatalf("%s: key %#x points at %v, not at the node holding it", name, k, n)
			}
			cur = n
			nodes = append(nodes, n)
		}
	}
	d.whole = max(d.whole, whole)
	sum := 0
	for _, n := range nodes {
		sum += int(n.n)
		depth := 0
		for p := n.parent; p != nil; p = p.parent {
			depth++
		}
		d.depth = max(d.depth, depth)
		if n.idx != x || n.n == 0 {
			d.fatalf("%s: node [%#x, +%d) of another index or empty", name, n.key, n.n)
		}
		if p := n.parent; p != nil && (n.src < p.key || n.src+n.n > p.key+p.n || !slices.Contains(p.children, n)) {
			d.fatalf("%s: [%#x, +%d) from %#x is not a child of [%#x, +%d)", name, n.key, n.n, n.src, p.key, p.n)
		}
		last := 0
		for _, c := range n.children {
			seq := d.seq[c.idx][c.key]
			if c.parent != n || seq < last {
				d.fatalf("%s: children of [%#x, +%d) out of delegation order at [%#x, +%d)", name, n.key, n.n, c.key, c.n)
			}
			last = seq
		}
	}
	if sum != x.len {
		d.fatalf("%s: len %d, nodes hold %d", name, x.len, sum)
	}
	return nodes
}

// TestMappingDatabaseMatchesReference drives the mapping database and
// the map-based reference through the same seeded random operations
// over several spaces of each kind: inserts, delegations (into
// occupied keys and partly overlapping ranges too), revokes with and
// without self, removes and destroys. After every operation, every
// lookup, translation, port check, length and memory-version change
// must agree, and so must every revoke count.
func TestMappingDatabaseMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := newDiffState(t, rand.New(rand.NewSource(seed)), shortGeom, 3)
			for i := 0; i < 800; i++ {
				d.step()
			}
		})
	}
}

// TestMappingDatabaseLongRunsMatchReference is the same comparison
// with runs of up to 4096 pages and ports (longGeom) over four spaces,
// with delegation sources drawn inside held runs: root grants and
// delegations that cover and cut 1024-key blocks, delegations of parts
// of delegated ranges down chains of spaces, and revokes of parts of
// runs with and without self.
func TestMappingDatabaseLongRunsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := newDiffState(t, rand.New(rand.NewSource(seed)), longGeom, 4)
			for i := 0; i < 250; i++ {
				d.step()
			}
			if d.depth < 3 || d.whole == 0 {
				t.Errorf("the draws reached delegation depth %d and %d whole blocks, want 3 and some", d.depth, d.whole)
			}
		})
	}
}

// fuzzSource is a rand.Source that replays fuzz bytes, four per draw,
// and draws zeros once they run out.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) Int63() int64 {
	var v [4]byte
	s.b = s.b[copy(v[:], s.b):]
	return int64(binary.LittleEndian.Uint32(v[:])) << 31
}

func (s *fuzzSource) Seed(int64) {}

// FuzzMappingDatabaseMatchesReference drives the comparison of
// TestMappingDatabaseMatchesReference from fuzz bytes: the first byte
// picks the geometry, the rest make every draw, and up to 100
// operations run until the bytes are used up.
func FuzzMappingDatabaseMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 256, 4096} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := shortGeom
		if data[0]&1 != 0 {
			g = longGeom
		}
		src := &fuzzSource{data[1:]}
		d := newDiffState(t, rand.New(src), g, 3)
		for i := 0; len(src.b) > 0 && i < 100; i++ {
			d.step()
		}
	})
}

// TestMappingDatabaseDelegationOrder pins the order revocation walks:
// children stay in delegation order, also when one of them goes.
func TestMappingDatabaseDelegationOrder(t *testing.T) {
	var x index
	nodes := make([]node, 6)
	x.insert(0, 1, &nodes[0])
	for i, key := range []uint32{5, 3, 9, 1} {
		x.delegate(key, 1, &nodes[1+i], &nodes[0], 0)
	}
	x.delegate(7, 1, &nodes[5], &nodes[2], 3)
	children := func() (keys []uint32) {
		for _, c := range nodes[0].children {
			keys = append(keys, c.key)
		}
		return keys
	}
	if want := []uint32{5, 3, 9, 1}; !slices.Equal(children(), want) {
		t.Fatalf("children %v, want %v", children(), want)
	}
	if got := nodes[2].revoke(true); got != 2 {
		t.Fatalf("revoking 3 and its child 7 removed %d", got)
	}
	if want := []uint32{5, 9, 1}; !slices.Equal(children(), want) {
		t.Fatalf("children after revoking 3: %v, want %v", children(), want)
	}
	if got := nodes[0].revoke(false); got != 3 || x.len != 1 || x.next(0) != &nodes[0] || x.next(1) != nil {
		t.Fatalf("revoke removed %d, %d left", got, x.len)
	}
}

// TestMappingDatabaseBounds checks the key bound: past 2^20 selectors
// and pages, inserts and delegations fail, lookups miss, and nothing
// panics.
func TestMappingDatabaseBounds(t *testing.T) {
	obj := &fakeObj{t: ObjPortal}
	s, dst := NewSpace("s"), NewSpace("dst")
	if err := s.Insert(keyBound, obj, RightsAll); !errors.Is(err, ErrInvalidSel) {
		t.Errorf("Insert(1<<20) = %v, want ErrInvalidSel", err)
	}
	if err := s.Insert(math.MaxUint32, obj, RightsAll); !errors.Is(err, ErrInvalidSel) {
		t.Errorf("Insert(MaxUint32) = %v, want ErrInvalidSel", err)
	}
	if err := s.Insert(keyBound-1, obj, RightsAll); err != nil {
		t.Fatalf("Insert(1<<20 - 1) = %v", err)
	}
	if err := s.Delegate(keyBound-1, dst, keyBound, RightsAll); !errors.Is(err, ErrInvalidSel) {
		t.Errorf("Delegate to 1<<20 = %v, want ErrInvalidSel", err)
	}
	if err := s.Delegate(keyBound-1, dst, keyBound-1, RightsAll); err != nil {
		t.Errorf("Delegate to 1<<20 - 1 = %v", err)
	}
	for _, sel := range []Selector{keyBound, math.MaxUint32} {
		if _, err := s.Lookup(sel); !errors.Is(err, ErrEmptySlot) {
			t.Errorf("Lookup(%#x) = %v, want ErrEmptySlot", sel, err)
		}
		if err := s.Delegate(sel, dst, 1, RightsAll); !errors.Is(err, ErrEmptySlot) {
			t.Errorf("Delegate from %#x = %v, want ErrEmptySlot", sel, err)
		}
		if _, err := s.Revoke(sel, true); !errors.Is(err, ErrEmptySlot) {
			t.Errorf("Revoke(%#x) = %v, want ErrEmptySlot", sel, err)
		}
		if err := s.Remove(sel); !errors.Is(err, ErrEmptySlot) {
			t.Errorf("Remove(%#x) = %v, want ErrEmptySlot", sel, err)
		}
	}
	if sel, ok := s.SelectorOf(obj); sel != keyBound-1 || !ok {
		t.Errorf("SelectorOf = %#x, %v", sel, ok)
	}
	// AllocSel runs into the bound: the selector it hands out past it
	// is refused, not wrapped.
	a := NewSpace("a")
	a.nextSel = keyBound - 2
	if sel := a.AllocSel(); sel != keyBound-1 || a.Insert(sel, obj, RightsAll) != nil {
		t.Errorf("AllocSel below the bound = %#x", sel)
	}
	if sel := a.AllocSel(); !errors.Is(a.Insert(sel, obj, RightsAll), ErrInvalidSel) {
		t.Errorf("AllocSel past the bound = %#x, insertable", sel)
	}

	m, md := NewMemSpace("m"), NewMemSpace("md")
	for _, r := range []struct {
		page   uint32
		npages int
	}{{keyBound - 1, 2}, {keyBound, 1}, {math.MaxUint32, 1}, {math.MaxUint32, 2}, {0, -1}, {0, keyBound + 1}} {
		if err := m.InsertRoot(r.page, 0, r.npages, RightsAll); err == nil {
			t.Errorf("InsertRoot(%#x, %d) accepted", r.page, r.npages)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("refused inserts left %d pages", m.Len())
	}
	if err := m.InsertRoot(keyBound-2, 7, 2, RightsAll); err != nil {
		t.Fatalf("InsertRoot at the top of the space: %v", err)
	}
	if err := m.Delegate(keyBound-2, md, keyBound-1, 2, RightsAll); err == nil || md.Len() != 0 {
		t.Errorf("Delegate past 4 GiB: %v, %d pages landed", err, md.Len())
	}
	if err := m.Delegate(keyBound-2, md, 0, -1, RightsAll); err == nil {
		t.Error("Delegate of -1 pages accepted")
	}
	for _, p := range []uint32{keyBound, math.MaxUint32} {
		if _, _, ok := m.Translate(p); ok {
			t.Errorf("Translate(%#x) hit", p)
		}
	}
	if f, _, ok := m.Translate(keyBound - 1); !ok || f != 8 {
		t.Errorf("Translate(top page) = %d, %v", f, ok)
	}
	if n := m.Revoke(math.MaxUint32, 2, true); n != 0 {
		t.Errorf("Revoke past 4 GiB removed %d", n)
	}
	if n := m.Revoke(keyBound-2, math.MaxInt32, true); n != 2 || m.Len() != 0 {
		t.Errorf("Revoke to the end removed %d, %d left", n, m.Len())
	}

	io, iod := NewIOSpace("io"), NewIOSpace("iod")
	io.InsertRoot(5, 3)
	if io.Len() != 0 {
		t.Errorf("empty port range granted %d ports", io.Len())
	}
	io.InsertRoot(0xfff0, 0xffff)
	if err := io.Delegate(iod, 0xfffe, 0xffff); err != nil || !iod.Allowed(0xffff) {
		t.Errorf("Delegate of the top ports: %v", err)
	}
	if err := io.Delegate(iod, 9, 8); err != nil {
		t.Errorf("Delegate of an empty range: %v", err)
	}
	if n := io.Revoke(0xffff, 0xffff, true); n != 2 || iod.Allowed(0xffff) {
		t.Errorf("Revoke(0xffff) removed %d", n)
	}
}

// TestLookupObjAllocs guards the hypercall path: validating an object
// reference allocates nothing, whichever way the scan ends.
func TestLookupObjAllocs(t *testing.T) {
	s := NewSpace("s")
	objs := []*fakeObj{{t: ObjPD}, {t: ObjEC}, {t: ObjSemaphore}}
	for i := 0; i < 32; i++ {
		s.Insert(Selector(i), &fakeObj{t: ObjPortal}, RightsAll) //nolint:errcheck
	}
	for _, o := range objs {
		s.Insert(s.AllocSel(), o, RightCall) //nolint:errcheck
	}
	for _, need := range []Rights{RightCall, RightCtrl} {
		if n := testing.AllocsPerRun(100, func() {
			s.LookupObj(objs[2], ObjSemaphore, need) //nolint:errcheck
		}); n != 0 {
			t.Errorf("LookupObj(need %v): %v allocs/op, want 0", need, n)
		}
	}
}

// BenchmarkLookupObjMiss times the reverse lookup of an object that a
// space holding eight capabilities does not name: the scan ends after
// the highest selector the space ever held, not at keyBound.
func BenchmarkLookupObjMiss(b *testing.B) {
	s := NewSpace("s")
	for i := 0; i < 8; i++ {
		s.Insert(s.AllocSel(), &fakeObj{t: ObjSemaphore}, RightsAll) //nolint:errcheck
	}
	missing := &fakeObj{t: ObjSemaphore}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LookupObj(missing, ObjSemaphore, RightCall); err == nil {
			b.Fatal("LookupObj found an object the space does not hold")
		}
	}
}

// TestMemSpaceTranslateAllocs guards the host-translation path.
func TestMemSpaceTranslateAllocs(t *testing.T) {
	m := NewMemSpace("m")
	m.InsertRoot(0x100, 0x100, 4096, RightsAll) //nolint:errcheck
	page := uint32(0x100)
	if n := testing.AllocsPerRun(100, func() {
		m.Translate(page)
		m.Translate(page + 5000)
		page++
	}); n != 0 {
		t.Errorf("Translate: %v allocs/op, want 0", n)
	}
}
