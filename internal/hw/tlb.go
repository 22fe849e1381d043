package hw

import (
	"math"
	"math/bits"
)

// TLBTag identifies the address-space tag of a TLB entry. On hardware
// with VPID/ASID support, guest entries carry the VM's tag and survive
// VM transitions; tag 0 is the host/hypervisor tag. Without tagging
// support every transition flushes the whole TLB.
type TLBTag uint16

// HostTag is the TLB tag of host-mode translations.
const HostTag TLBTag = 0

// TLBEntry is one cached translation.
type TLBEntry struct {
	Tag      TLBTag
	VPN      uint32 // virtual page number (vaddr >> 12)
	PFN      uint64 // physical frame number (paddr >> 12)
	Large    bool   // entry covers a large page
	Writable bool
	User     bool
	Global   bool // survives single-tag flushes (PGE)
}

// TLBStats counts TLB activity; the Figure 5 paging-mode deltas and the
// "TLB effects" box of Figure 8 derive from these.
type TLBStats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	FlushAll   uint64
	FlushTag   uint64
	FlushVA    uint64
	FlushedEnt uint64 // total entries dropped by flushes
}

// TLB models a tagged, capacity-limited translation cache with separate
// small-page and large-page arrays (as on Nehalem-class hardware). A
// large-page entry covers an entire 2M/4M region with a single entry,
// which is why large host pages lower TLB pressure (Figure 5's "EPT,
// small pages" bars).
//
// Each array is a fixed open-addressed slot table holding entries by
// value plus a ring of keys in fill order. A full array evicts the key
// at the oldest ring position whose key is present. Flushes leave ring
// positions behind, and a flushed key that is filled again is evicted at
// its oldest surviving position: the victim order, and with it every
// miss and cycle count, depends on keeping those positions.
type TLB struct {
	small tlbArray
	large tlbArray

	largeShift uint // log2 of the large page size (21 for 2M, 22 for 4M)

	Stats TLBStats
}

// NewTLB creates a TLB with the given entry capacities and large-page
// size in bytes (must be a power of two >= 2M).
func NewTLB(smallCap, largeCap int, largePage uint32) *TLB {
	shift := uint(0)
	for p := largePage; p > 1; p >>= 1 {
		shift++
	}
	return &TLB{
		small:      newTLBArray(smallCap),
		large:      newTLBArray(largeCap),
		largeShift: shift,
	}
}

// LargePageSize returns the large page size in bytes.
func (t *TLB) LargePageSize() uint32 { return 1 << t.largeShift }

func (t *TLB) largeVPN(vaddr uint32) uint32 { return vaddr >> t.largeShift }

// TLBRef refers to the entry a Translate hit. Hit tells, without
// another lookup, whether the same lookup would hit that entry again,
// which is what lets a cache of recent hits sit in front of the TLB.
type TLBRef struct {
	slot *tlbSlot
	key  tlbKey
	pfn  uint64
	// entered bounds large.entered. Lookups search the large array
	// first, so once a key enters it a small entry may be shadowed: for
	// a small entry entered is large.entered at the hit, for a large
	// entry it is the maximum.
	entered uint64
}

// Entry returns the entry r refers to, as the slot holds it now.
func (r *TLBRef) Entry() *TLBEntry { return &r.slot.entry }

// lookup returns the slot that holds the translation of vaddr under
// tag, or nil, and counts the hit or miss.
func (t *TLB) lookup(tag TLBTag, vaddr uint32) *tlbSlot {
	if s := t.large.lookup(keyOf(tag, t.largeVPN(vaddr))); s != nil {
		t.Stats.Hits++
		return s
	}
	if s := t.small.lookup(keyOf(tag, vaddr>>12)); s != nil {
		t.Stats.Hits++
		return s
	}
	t.Stats.Misses++
	return nil
}

// Hit reports whether the lookup that filled r would, if repeated now,
// hit the same entry with the same frame, and with write set whether
// that entry is writable. Its slot must still hold the same key and
// frame, and for a small entry no key may have entered the large array
// since. A hit is counted as a lookup counts it; nothing else changes.
func (t *TLB) Hit(r *TLBRef, write bool) bool {
	s := r.slot
	if s.key != r.key || s.entry.PFN != r.pfn || write && !s.entry.Writable || r.entered < t.large.entered {
		return false
	}
	t.Stats.Hits++
	return true
}

// Peek is Hit without the count: it changes nothing. It repeats Hit's
// test rather than Hit calling it, which keeps Hit and its callers
// small enough to inline.
func (t *TLB) Peek(r *TLBRef, write bool) bool {
	s := r.slot
	return s.key == r.key && s.entry.PFN == r.pfn && (!write || s.entry.Writable) && r.entered >= t.large.entered
}

// insert caches e, overwriting the entry of a present key in place.
func (t *TLB) insert(a *tlbArray, e TLBEntry) {
	k := keyOf(e.Tag, e.VPN)
	i, ok := a.find(k)
	if !ok {
		if a.n >= a.capn && a.evict() {
			t.Stats.Evictions++
			i, _ = a.find(k)
		}
		a.order.push(k)
		a.n++
		a.entered++
	}
	a.slots[i] = tlbSlot{k, e} // sanitized: find returns an index below len(slots)
	t.Stats.Fills++
}

// InsertSmall caches a 4K translation for vaddr.
func (t *TLB) InsertSmall(tag TLBTag, vaddr uint32, pfn uint64, writable, user, global bool) {
	t.insert(&t.small, TLBEntry{
		Tag: tag, VPN: vaddr >> 12, PFN: pfn, Writable: writable, User: user, Global: global,
	})
}

// InsertLarge caches a large-page translation for vaddr. pfn is the
// physical frame number of the large frame base (paddr >> 12).
func (t *TLB) InsertLarge(tag TLBTag, vaddr uint32, pfn uint64, writable, user, global bool) {
	t.insert(&t.large, TLBEntry{
		Tag: tag, VPN: t.largeVPN(vaddr), PFN: pfn, Large: true, Writable: writable, User: user, Global: global,
	})
}

// Translate returns the physical address for vaddr if cached, and
// sets *r to refer to the entry that maps it.
func (t *TLB) Translate(tag TLBTag, vaddr uint32, r *TLBRef) (PhysAddr, bool) {
	s := t.lookup(tag, vaddr)
	if s == nil {
		return 0, false
	}
	e := &s.entry
	*r = TLBRef{slot: s, key: s.key, pfn: e.PFN, entered: t.large.entered}
	mask := uint32(PageSize - 1)
	if e.Large {
		r.entered = math.MaxUint64
		mask = uint32(1)<<t.largeShift - 1
	}
	return PhysAddr(e.PFN)<<12 + PhysAddr(vaddr&mask), true
}

// FlushAll drops every entry (untagged hardware on a world switch, or
// MOV CR3 with PGE disabled dropping even global entries is modeled by
// the caller choosing FlushAll vs FlushTag).
func (t *TLB) FlushAll() {
	t.Stats.FlushAll++
	t.Stats.FlushedEnt += uint64(t.small.n + t.large.n)
	t.small.reset()
	t.large.reset()
}

// FlushTag drops all non-global entries with the given tag (tagged
// address-space switch / INVVPID single-context).
func (t *TLB) FlushTag(tag TLBTag) {
	t.Stats.FlushTag++
	t.Stats.FlushedEnt += t.small.flushTag(tag) + t.large.flushTag(tag)
}

// FlushVA drops the entry covering vaddr under tag (INVLPG).
func (t *TLB) FlushVA(tag TLBTag, vaddr uint32) {
	t.Stats.FlushVA++
	if t.small.drop(keyOf(tag, vaddr>>12)) {
		t.Stats.FlushedEnt++
	}
	if t.large.drop(keyOf(tag, t.largeVPN(vaddr))) {
		t.Stats.FlushedEnt++
	}
}

// Len returns the number of cached entries.
func (t *TLB) Len() int { return t.small.n + t.large.n }

// tlbKey packs a tag and a page number. The top bit marks the key of a
// used slot, so the zero key is an empty slot.
type tlbKey uint64

func keyOf(tag TLBTag, vpn uint32) tlbKey {
	return 1<<63 | tlbKey(tag)<<32 | tlbKey(vpn)
}

type tlbSlot struct {
	key   tlbKey
	entry TLBEntry
}

// tlbArray is one entry array: a linear-probing slot table with at
// least twice as many slots as entries, so every probe sequence ends at
// an empty slot, and the ring of keys in fill order.
type tlbArray struct {
	slots []tlbSlot
	shift uint // 64 - log2(len(slots))
	capn  int
	n     int // entries present
	order keyRing

	entered uint64 // keys that have entered the array, ever
}

func newTLBArray(capn int) tlbArray {
	size := 2
	for size < 2*capn {
		size <<= 1
	}
	return tlbArray{
		slots: make([]tlbSlot, size),
		shift: 64 - uint(bits.TrailingZeros(uint(size))),
		capn:  capn,
		order: keyRing{buf: make([]tlbKey, size)},
	}
}

// home is k's first probe slot (Fibonacci hashing).
func (a *tlbArray) home(k tlbKey) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> a.shift)
}

// find returns the slot holding k and true, or the empty slot that ends
// k's probe sequence and false.
func (a *tlbArray) find(k tlbKey) (int, bool) {
	mask := len(a.slots) - 1
	for i := a.home(k); ; i = (i + 1) & mask {
		switch a.slots[i].key {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (a *tlbArray) lookup(k tlbKey) *tlbSlot {
	if a.n == 0 {
		return nil
	}
	if i, ok := a.find(k); ok {
		return &a.slots[i] // sanitized: find returns an index below len(slots)
	}
	return nil
}

// remove empties slot i by backward-shift deletion: later entries of
// the same probe run move into the hole when that keeps them reachable
// from their home slot, so no tombstones are needed.
func (a *tlbArray) remove(i int) {
	mask := len(a.slots) - 1
	for j := (i + 1) & mask; a.slots[j].key != 0; j = (j + 1) & mask {
		if (j-a.home(a.slots[j].key))&mask >= (j-i)&mask {
			a.slots[i] = a.slots[j]
			i = j
		}
	}
	a.slots[i] = tlbSlot{}
	a.n--
}

// drop removes k if present.
func (a *tlbArray) drop(k tlbKey) bool {
	i, ok := a.find(k)
	if ok {
		a.remove(i)
	}
	return ok
}

// evict removes the present key at the oldest ring position; positions
// of absent keys on the way are consumed.
func (a *tlbArray) evict() bool {
	for a.order.n > 0 {
		if i, ok := a.find(a.order.pop()); ok {
			a.remove(i)
			return true
		}
	}
	return false
}

// flushTag removes the non-global entries of tag, scanning slots in
// index order, and returns how many it removed. A removal can shift a
// later entry into the current slot, so that slot is examined again;
// entries move only toward their home slot, never from an unscanned
// slot into a scanned one.
func (a *tlbArray) flushTag(tag TLBTag) uint64 {
	var dropped uint64
	for i := 0; i < len(a.slots) && a.n > 0; {
		if s := &a.slots[i]; s.key != 0 && s.entry.Tag == tag && !s.entry.Global {
			a.remove(i)
			dropped++
			continue
		}
		i++
	}
	return dropped
}

func (a *tlbArray) reset() {
	if a.n > 0 {
		clear(a.slots)
		a.n = 0
	}
	a.order.head, a.order.n = 0, 0
}

// keyRing is a FIFO of keys on a power-of-two buffer that doubles when
// full; it never drops a position on its own.
type keyRing struct {
	buf     []tlbKey
	head, n int
}

func (r *keyRing) push(k tlbKey) {
	if r.n == len(r.buf) {
		buf := make([]tlbKey, 2*len(r.buf))
		c := copy(buf, r.buf[r.head:])
		copy(buf[c:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = k
	r.n++
}

func (r *keyRing) pop() tlbKey {
	k := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return k
}
