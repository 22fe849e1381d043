package hw

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestTLBInsertLookupSmall(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 0x42, true, false, false)
	var r TLBRef
	pa, ok := tlb.Translate(1, 0x1234, &r)
	if !ok {
		t.Fatal("miss after insert")
	}
	if pa != 0x42<<12|0x234 {
		t.Errorf("pa = %#x", pa)
	}
	if e := r.Entry(); !e.Writable || e.User {
		t.Errorf("perms wrong: %+v", e)
	}
	// Different tag misses.
	if _, ok := tlb.Translate(2, 0x1234, &r); ok {
		t.Error("hit under wrong tag")
	}
}

func TestTLBLargePageCoverage(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	// One large entry covers the whole 2M region.
	tlb.InsertLarge(1, 0x00200000, 0x800, true, true, false)
	for _, va := range []uint32{0x00200000, 0x00200fff, 0x003fffff} {
		var r TLBRef
		pa, ok := tlb.Translate(1, va, &r)
		if !ok {
			t.Fatalf("large-page miss at %#x", va)
		}
		if !r.Entry().Large {
			t.Fatal("entry not large")
		}
		want := PhysAddr(0x800)<<12 + PhysAddr(va&0x1fffff)
		if pa != want {
			t.Errorf("pa(%#x) = %#x, want %#x", va, pa, want)
		}
	}
	// Next region misses.
	var r TLBRef
	if _, ok := tlb.Translate(1, 0x00400000, &r); ok {
		t.Error("hit outside large page")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := NewTLB(4, 2, 2<<20)
	for i := uint32(0); i < 8; i++ {
		tlb.InsertSmall(1, i<<12, uint64(i), false, false, false)
	}
	if tlb.Len() > 4+0 {
		t.Errorf("TLB over capacity: %d entries", tlb.Len())
	}
	if tlb.Stats.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", tlb.Stats.Evictions)
	}
	// FIFO: oldest entries gone, newest present.
	if tlb.lookup(1, 0) != nil {
		t.Error("oldest entry survived eviction")
	}
	if tlb.lookup(1, 7<<12) == nil {
		t.Error("newest entry evicted")
	}
}

func TestTLBFlushTagSparesOtherTagsAndGlobals(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 1, false, false, false)
	tlb.InsertSmall(1, 0x2000, 2, false, false, true) // global
	tlb.InsertSmall(2, 0x1000, 3, false, false, false)
	tlb.FlushTag(1)
	if tlb.lookup(1, 0x1000) != nil {
		t.Error("flushed entry survived")
	}
	if tlb.lookup(1, 0x2000) == nil {
		t.Error("global entry flushed by FlushTag")
	}
	if tlb.lookup(2, 0x1000) == nil {
		t.Error("other tag flushed")
	}
}

func TestTLBFlushAllDropsEverything(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 1, false, false, true)
	tlb.InsertLarge(2, 0x200000, 2, false, false, false)
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Errorf("entries after FlushAll: %d", tlb.Len())
	}
	if tlb.Stats.FlushedEnt != 2 {
		t.Errorf("FlushedEnt = %d, want 2", tlb.Stats.FlushedEnt)
	}
}

func TestTLBFlushVA(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 1, false, false, false)
	tlb.InsertSmall(1, 0x2000, 2, false, false, false)
	tlb.FlushVA(1, 0x1800) // same page as 0x1000
	if tlb.lookup(1, 0x1000) != nil {
		t.Error("INVLPG'd entry survived")
	}
	if tlb.lookup(1, 0x2000) == nil {
		t.Error("unrelated entry flushed")
	}
}

func TestTLBStatsCounting(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.lookup(1, 0x1000) // miss
	tlb.InsertSmall(1, 0x1000, 1, false, false, false)
	tlb.lookup(1, 0x1000) // hit
	if tlb.Stats.Misses != 1 || tlb.Stats.Hits != 1 || tlb.Stats.Fills != 1 {
		t.Errorf("stats = %+v", tlb.Stats)
	}
}

func TestTLBTranslationProperty(t *testing.T) {
	// Property: translate(insert(va, pfn)) preserves the page offset and
	// maps the page number to pfn, for arbitrary va/pfn.
	f := func(vaRaw uint32, pfnRaw uint32, tagRaw uint8) bool {
		tlb := NewTLB(8, 2, 2<<20)
		tag := TLBTag(tagRaw)
		pfn := uint64(pfnRaw) & 0xfffff
		tlb.InsertSmall(tag, vaRaw, pfn, true, true, false)
		var r TLBRef
		pa, ok := tlb.Translate(tag, vaRaw, &r)
		return ok && pa == PhysAddr(pfn)<<12+PhysAddr(vaRaw&0xfff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTLBMatchesReference drives the TLB and refTLB, the map-and-slice
// TLB it replaced, through the same seeded operation sequences and
// requires the same result after every operation: hit or miss, physical
// address and entry of every translation, Stats and Len. Page numbers
// come from a range about twice the capacity, so overwrites of present
// keys, evictions, flushes and re-fills of flushed keys are frequent.
func TestTLBMatchesReference(t *testing.T) {
	caps := [][2]int{{512, 32}}
	for c := 1; c <= 8; c++ {
		caps = append(caps, [2]int{c, 9 - c})
	}
	for _, c := range caps {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d-%d/seed%d", c[0], c[1], seed), func(t *testing.T) {
				diffTLB(t, c[0], c[1], seed, 6000)
			})
		}
	}
}

func diffTLB(t *testing.T, smallCap, largeCap int, seed uint64, ops int) {
	rng := rand.New(rand.NewPCG(seed, uint64(smallCap)<<8|uint64(largeCap)))
	got, want := NewTLB(smallCap, largeCap, 4<<20), newRefTLB(smallCap, largeCap, 4<<20)

	// Small pages are spread over the address space by an odd stride so
	// that probe runs in the slot table collide and wrap; large pages
	// share the low regions with them, so large entries shadow small ones.
	smallPages, largePages := 2*smallCap+2, 2*largeCap+2
	stride, base := rng.Uint32()|1, rng.Uint32()
	smallVA := func(i int) uint32 { return (base+uint32(i)*stride)<<12 | rng.Uint32()&0xfff }
	largeVA := func(i int) uint32 { return uint32(i)<<22 | rng.Uint32()&(4<<20-1) }
	anyVA := func() uint32 {
		if rng.IntN(3) == 0 {
			return largeVA(rng.IntN(largePages))
		}
		return smallVA(rng.IntN(smallPages))
	}
	tag := func() TLBTag { return TLBTag(rng.IntN(3)) }
	flag := func() bool { return rng.IntN(2) == 0 }
	global := func() bool { return rng.IntN(4) == 0 }

	// References of the last hits, re-checked after every operation.
	type heldRef struct {
		tag TLBTag
		va  uint32
		ref TLBRef
	}
	var held []heldRef

	var op string
	check := func(n int) {
		t.Helper()
		if got.Stats != want.Stats || got.Len() != want.Len() {
			t.Fatalf("op %d (%s): stats %+v len %d, reference %+v len %d",
				n, op, got.Stats, got.Len(), want.Stats, want.Len())
		}
		// Hit accepts a reference exactly when a repeated lookup returns
		// its slot and frame, except that a small entry is refused once a
		// key has entered the large array. What it accepts, the reference
		// TLB translates the same way. It counts one hit and nothing else.
		for _, h := range held {
			for _, write := range []bool{false, true} {
				gs, ws := got.Stats, want.Stats
				hit := got.Hit(&h.ref, write)
				counted := got.Stats
				fresh := got.lookup(h.tag, h.va)
				_, we, wok := want.Translate(h.tag, h.va)
				got.Stats, want.Stats = gs, ws
				large := h.ref.Entry().Large
				same := fresh == h.ref.slot && fresh.entry.PFN == h.ref.pfn && (!write || fresh.entry.Writable) &&
					(large || h.ref.entered == got.large.entered)
				if hit {
					gs.Hits++
				}
				if counted != gs || hit != same ||
					hit && (!wok || we.PFN != h.ref.pfn || we.Large != large || write && !we.Writable) {
					t.Fatalf("op %d (%s): Hit(%d, %#x, write=%v) = %v (stats %+v, want %+v), repeated lookup %v %+v, reference %v %+v",
						n, op, h.tag, h.va, write, hit, counted, gs, fresh != nil, fresh, wok, we)
				}
			}
		}
	}
	translate := func(n int, tg TLBTag, va uint32) {
		t.Helper()
		var gr TLBRef
		gpa, gok := got.Translate(tg, va, &gr)
		wpa, we, wok := want.Translate(tg, va)
		if gok != wok || gpa != wpa || gok && *gr.Entry() != *we {
			t.Fatalf("op %d (%s): translate(%d, %#x) = %#x %v %+v, reference %#x %v %+v",
				n, op, tg, va, gpa, gok, gr, wpa, wok, we)
		}
		if gok {
			held = append(held, heldRef{tg, va, gr})
			if len(held) > 8 {
				held = held[1:]
			}
		}
	}
	insertSmall := func(tg TLBTag, va uint32) {
		pfn, w, u, g := rng.Uint64()&0xfffff, flag(), flag(), global()
		got.InsertSmall(tg, va, pfn, w, u, g)
		want.InsertSmall(tg, va, pfn, w, u, g)
	}
	insertLarge := func(tg TLBTag, va uint32) {
		pfn, w, u, g := rng.Uint64()&0xffc00, flag(), flag(), global()
		got.InsertLarge(tg, va, pfn, w, u, g)
		want.InsertLarge(tg, va, pfn, w, u, g)
	}

	for n := 0; n < ops; n++ {
		switch r := rng.IntN(100); {
		case r < 30:
			tg, va := tag(), anyVA()
			op = fmt.Sprintf("translate %d %#x", tg, va)
			translate(n, tg, va)
		case r < 55:
			tg, va := tag(), smallVA(rng.IntN(smallPages))
			op = fmt.Sprintf("insert small %d %#x", tg, va)
			insertSmall(tg, va)
		case r < 65:
			tg, va := tag(), largeVA(rng.IntN(largePages))
			op = fmt.Sprintf("insert large %d %#x", tg, va)
			insertLarge(tg, va)
		case r < 75:
			tg, va := tag(), anyVA()
			op = fmt.Sprintf("flush va %d %#x", tg, va)
			got.FlushVA(tg, va)
			want.FlushVA(tg, va)
		case r < 82:
			tg := tag()
			op = fmt.Sprintf("flush tag %d", tg)
			got.FlushTag(tg)
			want.FlushTag(tg)
		case r < 84:
			op = "flush all"
			got.FlushAll()
			want.FlushAll()
		case r < 92:
			// Flush a page, then fill it again: its old ring position
			// stays and decides when it is evicted.
			tg, va := tag(), smallVA(rng.IntN(smallPages))
			op = fmt.Sprintf("flush va and re-fill %d %#x", tg, va)
			got.FlushVA(tg, va)
			want.FlushVA(tg, va)
			insertSmall(tg, va)
		default:
			tg := tag()
			op = fmt.Sprintf("flush tag and re-fill %d", tg)
			got.FlushTag(tg)
			want.FlushTag(tg)
			for range rng.IntN(2*smallCap + 1) {
				insertSmall(tg, smallVA(rng.IntN(smallPages)))
			}
			for range rng.IntN(2*largeCap + 1) {
				insertLarge(tg, largeVA(rng.IntN(largePages)))
			}
		}
		check(n)
		if n%256 == 255 {
			// Every key of the working set, hit or miss.
			op = "sweep"
			for tg := TLBTag(0); tg < 3; tg++ {
				for i := range smallPages {
					translate(n, tg, smallVA(i))
				}
				for i := range largePages {
					translate(n, tg, largeVA(i))
				}
			}
			check(n)
		}
	}
}

// churnFill fills twice as many pages as the small array holds, in a
// fixed order, so half the fills evict. Followed by FlushTag(1) it is
// one pass of the vtlb-churn guest, which reloads CR3 per pass.
func churnFill(tlb *TLB) {
	for p := uint32(0); p < 1024; p++ {
		tlb.InsertSmall(1, p<<12, uint64(p), true, true, false)
	}
}

// TestTLBSteadyStateAllocs: once the fill-order rings have grown to the
// working size of a pattern, translations, evicting fills and flushes
// allocate nothing.
func TestTLBSteadyStateAllocs(t *testing.T) {
	churn := NewTLB(512, 32, 4<<20)
	for range 64 {
		churnFill(churn)
		churn.FlushTag(1)
	}
	full := NewTLB(512, 32, 4<<20)
	for p := uint32(0); p < 512; p++ {
		full.InsertSmall(1, p<<12, uint64(p), true, true, false)
	}
	full.InsertLarge(1, 0x40000000, 0x40000, true, true, false)
	next := uint32(512)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"lookup", func() {
			full.lookup(1, 0x1234)
			full.lookup(1, 0x40001234)
			full.lookup(2, 0x1234)
		}},
		{"insert-with-eviction", func() {
			full.InsertSmall(1, next%1024<<12, uint64(next), true, true, false)
			next++
		}},
		{"churn-pass-flush-tag", func() {
			churnFill(churn)
			churn.FlushTag(1)
		}},
	} {
		if a := testing.AllocsPerRun(50, c.f); a != 0 {
			t.Errorf("%s: %v allocations per run, want 0", c.name, a)
		}
	}
}

// BenchmarkTLB measures the translation cache's operations at steady
// state: hits in each array, a miss with its evicting fill, and a
// FlushTag that empties a full small array.
func BenchmarkTLB(b *testing.B) {
	b.Run("small-hit", func(b *testing.B) {
		tlb := NewTLB(512, 32, 4<<20)
		for p := uint32(0); p < 512; p++ {
			tlb.InsertSmall(1, p<<12, uint64(p), true, true, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tlb.lookup(1, uint32(i)%512<<12)
		}
	})
	b.Run("large-hit", func(b *testing.B) {
		tlb := NewTLB(512, 32, 4<<20)
		for p := uint32(0); p < 32; p++ {
			tlb.InsertLarge(1, p<<22, uint64(p)<<10, true, true, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tlb.lookup(1, uint32(i)%32<<22|uint32(i)&0x3ff000)
		}
	})
	b.Run("miss-fill-evict", func(b *testing.B) {
		tlb := NewTLB(512, 32, 4<<20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			va := uint32(i) % 1024 << 12
			if tlb.lookup(1, va) == nil {
				tlb.InsertSmall(1, va, uint64(i), true, true, false)
			}
		}
	})
	b.Run("flush-tag", func(b *testing.B) {
		// Each op refills the array (with evictions, which keep the ring
		// at its working size) and then drops 512 entries with FlushTag;
		// flush-ns/op times the FlushTag alone.
		tlb := NewTLB(512, 32, 4<<20)
		var flush time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churnFill(tlb)
			t0 := time.Now()
			tlb.FlushTag(1)
			flush += time.Since(t0)
		}
		b.ReportMetric(float64(flush.Nanoseconds())/float64(b.N), "flush-ns/op")
	})
}

// refTLB is the map-and-slice TLB the slot tables replaced, unchanged
// but for its names: the reference model of TestTLBMatchesReference.
type refKey struct {
	tag TLBTag
	vpn uint32
}

// TLB models a tagged, capacity-limited translation cache with separate
// small-page and large-page arrays (as on Nehalem-class hardware). A
// large-page entry covers an entire 2M/4M region with a single entry,
// which is why large host pages lower TLB pressure (Figure 5's "EPT,
// small pages" bars).
type refTLB struct {
	smallCap int
	largeCap int

	small map[refKey]*TLBEntry
	large map[refKey]*TLBEntry

	// FIFO eviction rings for determinism.
	smallOrder []refKey
	largeOrder []refKey

	largeShift uint // log2 of the large page size (21 for 2M, 22 for 4M)

	Stats TLBStats
}

// newRefTLB creates a TLB with the given entry capacities and large-page
// size in bytes (must be a power of two >= 2M).
func newRefTLB(smallCap, largeCap int, largePage uint32) *refTLB {
	shift := uint(0)
	for p := largePage; p > 1; p >>= 1 {
		shift++
	}
	return &refTLB{
		smallCap:   smallCap,
		largeCap:   largeCap,
		small:      make(map[refKey]*TLBEntry, smallCap),
		large:      make(map[refKey]*TLBEntry, largeCap),
		largeShift: shift,
	}
}

// LargePageSize returns the large page size in bytes.
func (t *refTLB) LargePageSize() uint32 { return 1 << t.largeShift }

func (t *refTLB) largeVPN(vaddr uint32) uint32 { return vaddr >> t.largeShift }

// Lookup searches for a translation of vaddr under tag. On a hit it
// returns the entry.
func (t *refTLB) Lookup(tag TLBTag, vaddr uint32) (*TLBEntry, bool) {
	if e, ok := t.large[refKey{tag, t.largeVPN(vaddr)}]; ok {
		t.Stats.Hits++
		return e, true
	}
	if e, ok := t.small[refKey{tag, vaddr >> 12}]; ok {
		t.Stats.Hits++
		return e, true
	}
	t.Stats.Misses++
	return nil, false
}

// Insert caches a translation. For large entries, VPN must already be the
// large-page-aligned virtual page number (vaddr >> largeShift stored as
// VPN) — use InsertLarge/InsertSmall helpers to avoid mistakes.
func (t *refTLB) insert(m map[refKey]*TLBEntry, order *[]refKey, capn int, k refKey, e *TLBEntry) {
	if _, exists := m[k]; !exists && len(m) >= capn {
		// FIFO eviction of the oldest still-present key.
		for len(*order) > 0 {
			victim := (*order)[0]
			*order = (*order)[1:]
			if _, ok := m[victim]; ok {
				delete(m, victim)
				t.Stats.Evictions++
				break
			}
		}
	}
	if _, exists := m[k]; !exists {
		*order = append(*order, k)
	}
	m[k] = e
	t.Stats.Fills++
}

// InsertSmall caches a 4K translation for vaddr.
func (t *refTLB) InsertSmall(tag TLBTag, vaddr uint32, pfn uint64, writable, user, global bool) {
	k := refKey{tag, vaddr >> 12}
	t.insert(t.small, &t.smallOrder, t.smallCap, k, &TLBEntry{
		Tag: tag, VPN: k.vpn, PFN: pfn, Writable: writable, User: user, Global: global,
	})
}

// InsertLarge caches a large-page translation for vaddr. pfn is the
// physical frame number of the large frame base (paddr >> 12).
func (t *refTLB) InsertLarge(tag TLBTag, vaddr uint32, pfn uint64, writable, user, global bool) {
	k := refKey{tag, t.largeVPN(vaddr)}
	t.insert(t.large, &t.largeOrder, t.largeCap, k, &TLBEntry{
		Tag: tag, VPN: k.vpn, PFN: pfn, Large: true, Writable: writable, User: user, Global: global,
	})
}

// Translate returns the physical address for vaddr if cached.
func (t *refTLB) Translate(tag TLBTag, vaddr uint32) (PhysAddr, *TLBEntry, bool) {
	e, ok := t.Lookup(tag, vaddr)
	if !ok {
		return 0, nil, false
	}
	if e.Large {
		mask := uint32(1)<<t.largeShift - 1
		return PhysAddr(e.PFN)<<12 + PhysAddr(vaddr&mask), e, true
	}
	return PhysAddr(e.PFN)<<12 + PhysAddr(vaddr&0xfff), e, true
}

// FlushAll drops every entry (untagged hardware on a world switch, or
// MOV CR3 with PGE disabled dropping even global entries is modeled by
// the caller choosing FlushAll vs FlushTag).
func (t *refTLB) FlushAll() {
	t.Stats.FlushAll++
	t.Stats.FlushedEnt += uint64(len(t.small) + len(t.large))
	refClearMap(t.small)
	refClearMap(t.large)
	t.smallOrder = t.smallOrder[:0]
	t.largeOrder = t.largeOrder[:0]
}

// FlushTag drops all non-global entries with the given tag (tagged
// address-space switch / INVVPID single-context).
func (t *refTLB) FlushTag(tag TLBTag) {
	t.Stats.FlushTag++
	for k, e := range t.small {
		if k.tag == tag && !e.Global {
			delete(t.small, k)
			t.Stats.FlushedEnt++
		}
	}
	for k, e := range t.large {
		if k.tag == tag && !e.Global {
			delete(t.large, k)
			t.Stats.FlushedEnt++
		}
	}
}

// FlushVA drops the entry covering vaddr under tag (INVLPG).
func (t *refTLB) FlushVA(tag TLBTag, vaddr uint32) {
	t.Stats.FlushVA++
	if _, ok := t.small[refKey{tag, vaddr >> 12}]; ok {
		delete(t.small, refKey{tag, vaddr >> 12})
		t.Stats.FlushedEnt++
	}
	if _, ok := t.large[refKey{tag, t.largeVPN(vaddr)}]; ok {
		delete(t.large, refKey{tag, t.largeVPN(vaddr)})
		t.Stats.FlushedEnt++
	}
}

// Len returns the number of cached entries.
func (t *refTLB) Len() int { return len(t.small) + len(t.large) }

func refClearMap(m map[refKey]*TLBEntry) {
	for k := range m {
		delete(m, k)
	}
}
