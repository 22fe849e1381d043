package cap

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diffBlocks are the key blocks TestMappingDatabaseMatchesReference
// draws from: the bottom of the key space, a block straddling the
// first leaf boundary of the index, and the top of the key space.
var diffBlocks = [...]uint32{0, 1008, keyBound - 32}

const diffBlockLen = 32

// diffPortBlocks are the port blocks: low ports, the serial ports
// around 0x3f8, and the top of the 16-bit port space.
var diffPortBlocks = [...]uint32{0, 0x3f0, 0x10000 - diffBlockLen}

// diffState pairs every space with its reference and drives both
// through the same operations.
type diffState struct {
	t   *testing.T
	rng *rand.Rand
	op  string // the last operation, for failure messages

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
}

func newDiffState(t *testing.T, seed int64, spaces int) *diffState {
	d := &diffState{t: t, rng: rand.New(rand.NewSource(seed))}
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
// one block. Three draws in four start at a held key, if there is one,
// so that most delegations and revocations find something.
func (d *diffState) keyRange(blocks [3]uint32, held []uint32, maxLen int) (key uint32, n int) {
	key = blocks[d.rng.Intn(len(blocks))] + uint32(d.rng.Intn(diffBlockLen))
	if len(held) > 0 && d.rng.Intn(4) > 0 {
		key = held[d.rng.Intn(len(held))]
	}
	room := 1
	for _, b := range blocks {
		if key >= b && key < b+diffBlockLen {
			room = int(b + diffBlockLen - key)
		}
	}
	return key, d.rng.Intn(min(maxLen, room) + 1)
}

// ports draws a port range [lo, hi] of at most maxLen ports; an empty
// draw gives hi < lo.
func (d *diffState) ports(held []uint32, maxLen int) (lo, hi uint16) {
	k, n := d.keyRange(diffPortBlocks, held, maxLen)
	if n == 0 {
		return uint16(k) | 1, uint16(k) &^ 1
	}
	return uint16(k), uint16(k + uint32(n) - 1)
}

func (d *diffState) sel(held []uint32) Selector {
	k, _ := d.keyRange(diffBlocks, held, 0)
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

// step applies one random operation to both implementations and
// compares the results.
func (d *diffState) step() {
	d.t.Helper()
	a, b := d.space(), d.space()
	switch r := d.rng.Intn(100); {
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
		d.sameErr(d.caps[a].Delegate(src, d.caps[b], dst, mask), d.refCaps[a].Delegate(src, d.refCaps[b], dst, mask))
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
		page, n := d.keyRange(diffBlocks, nil, 5)
		frame, rights := uint64(d.rng.Intn(1<<20)), d.rights()
		d.op = fmt.Sprintf("mem[%d].InsertRoot(%#x, %#x, %d, %v)", a, page, frame, n, rights)
		d.sameErr(d.mem[a].InsertRoot(page, frame, n, rights), d.refMem[a].InsertRoot(page, frame, n, rights))
	case r < 70:
		src, n := d.keyRange(diffBlocks, d.heldPages(a), 5)
		dst, dn := d.keyRange(diffBlocks, nil, 5)
		n, mask := min(n, dn), d.rights()
		d.op = fmt.Sprintf("mem[%d].Delegate(%#x, mem[%d], %#x, %d, %v)", a, src, b, dst, n, mask)
		d.sameErr(d.mem[a].Delegate(src, d.mem[b], dst, n, mask), d.refMem[a].Delegate(src, d.refMem[b], dst, n, mask))
	case r < 77:
		page, n := d.keyRange(diffBlocks, d.heldPages(a), 8)
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
		lo, hi := d.ports(nil, 6)
		d.op = fmt.Sprintf("io[%d].InsertRoot(%#x, %#x)", a, lo, hi)
		d.io[a].InsertRoot(lo, hi)
		d.refIO[a].InsertRoot(lo, hi)
	case r < 93:
		lo, hi := d.ports(d.heldPorts(a), 6)
		d.op = fmt.Sprintf("io[%d].Delegate(io[%d], %#x, %#x)", a, b, lo, hi)
		d.sameErr(d.io[a].Delegate(d.io[b], lo, hi), d.refIO[a].Delegate(d.refIO[b], lo, hi))
	case r < 99:
		lo, hi := d.ports(d.heldPorts(a), 8)
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

// check compares every observable of every space with the reference.
func (d *diffState) check() {
	d.t.Helper()
	for i, s := range d.caps {
		ref := d.refCaps[i]
		if s.Len() != ref.Len() || !slices.Equal(s.Selectors(), ref.Selectors()) {
			d.fatalf("caps[%d]: selectors %v, reference %v", i, s.Selectors(), ref.Selectors())
		}
		for _, base := range diffBlocks {
			for sel := Selector(base); sel < Selector(base+diffBlockLen); sel++ {
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
		ref := d.refMem[i]
		if m.Len() != ref.Len() {
			d.fatalf("mem[%d]: %d pages, reference %d", i, m.Len(), ref.Len())
		}
		for _, base := range diffBlocks {
			for p := base; p < base+diffBlockLen; p++ {
				f, r, ok := m.Translate(p)
				rf, rr, rok := ref.Translate(p)
				if f != rf || r != rr || ok != rok {
					d.fatalf("mem[%d].Translate(%#x) = %#x, %v, %v; reference %#x, %v, %v", i, p, f, r, ok, rf, rr, rok)
				}
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
		ref := d.refIO[i]
		if s.Len() != ref.Len() {
			d.fatalf("io[%d]: %d ports, reference %d", i, s.Len(), ref.Len())
		}
		for _, base := range diffPortBlocks {
			for p := base; p < base+diffBlockLen; p++ {
				if got, want := s.Allowed(uint16(p)), ref.Allowed(uint16(p)); got != want {
					d.fatalf("io[%d].Allowed(%#x) = %v, reference %v", i, p, got, want)
				}
			}
		}
	}
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
			d := newDiffState(t, seed, 3)
			for i := 0; i < 800; i++ {
				d.step()
			}
		})
	}
}

// TestMappingDatabaseDelegationOrder pins the order revocation walks:
// children stay in delegation order, also when one of them goes.
func TestMappingDatabaseDelegationOrder(t *testing.T) {
	var x index
	nodes := make([]node, 6)
	x.insert(0, &nodes[0])
	for i, key := range []uint32{5, 3, 9, 1} {
		x.delegate(key, &nodes[1+i], &nodes[0])
	}
	x.delegate(7, &nodes[5], &nodes[2])
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
