package x86

// This file is host-side performance machinery only. Nothing in it may
// influence simulated behaviour: the decoded-instruction cache and the
// page-span fetcher exist so the interpreter's hot loop avoids re-doing
// host work (per-byte Env.MemRead calls, instruction decode) whose
// simulated cost is charged elsewhere. Virtual-cycle accounting, trace
// output and guest-visible state must be bit-identical with the cache
// attached or not; the determinism A/B test enforces this.

// codePageSize is the unit of the decoded-instruction cache: one small
// page, matching the granularity of address translation and of the
// physical-memory write generations that invalidate cached decodes.
const codePageSize = 4096

// ExecPager is an optional Env extension providing direct host access to
// the RAM page backing an instruction fetch. ExecPage must perform
// exactly the translation work — cycle charges, TLB fills, trace events,
// faults and exits — that a one-byte MemRead(va, AccessExec) would, and
// additionally return the whole backing physical page as a raw slice,
// the page's code map, a stable identifier for it (its physical page
// number), the page's current write generation, and the cycles the
// translation charged (zero on a TLB hit), which StepBlock counts
// against its window.
//
// A nil data slice with a nil error means "no fast path" (the page is
// MMIO-backed or otherwise not plain RAM); the interpreter then falls
// back to fetching through MemRead, which is free of double charging
// because the translation just performed is hit in the TLB.
//
// FreeAccess reports whether MemRead (write false) or MemWrite (write
// true) of n bytes at va would right now be free: it stays inside one
// page, costs no cycles, records nothing, changes nothing but the TLB's
// hit count and, for a write, leaves every page's write generation
// alone. It is a query, and itself counts and changes nothing. A fused
// run asks it before each memory access it executes.
type ExecPager interface {
	ExecPage(st *CPUState, va uint32) (data []byte, code CodeMap, page, gen, charged uint64, err error)
	FreeAccess(st *CPUState, va uint32, n int, write bool) bool
}

// CodeMap is the code map of the page ExecPage returned. Mark records
// that the cache holds an instruction decoded from bytes [off, off+n)
// of the page. From then on, until the page's write generation moves,
// every store that overlaps a marked byte must move it.
type CodeMap interface {
	Mark(off, n int)
}

// decodeKey identifies one cached code page: decoded instructions depend
// on the page's bytes and on the code segment's default operand size.
type decodeKey struct {
	page  uint64
	def32 bool
}

// decodedPage holds the decode results of one physical page, indexed by
// page offset. Only instructions contained entirely within the page are
// cached, and each is marked in the page's code map when it is cached;
// gen is the page's write generation at fill time.
//
// A cached decode is valid while gen still equals the page's write
// generation: a store that changes any byte an entry was decoded from
// overlaps a marked byte, so it moves the generation. Stores elsewhere
// on the page, such as a guest's variables next to its code, leave
// the generation and every decode alone. Once the generation moves,
// DecodeCache.page drops the page's decodes in one go and re-decodes
// on demand; the move cleared the code map, and re-decoding marks the
// bytes again.
type decodedPage struct {
	gen   uint64
	insts [codePageSize]*Inst
}

// decodeCacheMaxPages bounds host memory use. Overflow resets the whole
// cache: dropping entries is always safe (they are re-decoded on demand)
// and code working sets larger than this are rare.
const decodeCacheMaxPages = 64

// DecodeCache memoizes instruction decode per physical code page. It is
// shared per vCPU and validated against physical-page write generations,
// so guest stores into cached code (self-modifying code), VMM or BIOS
// writes, and device DMA all invalidate stale decodes uniformly —
// regardless of which virtual mapping the writes went through.
type DecodeCache struct {
	pages map[decodeKey]*decodedPage

	// One-entry MRU memo: consecutive fetches overwhelmingly hit the
	// same code page, and the map hash dominates the lookup otherwise.
	// lastGen is last's generation, kept next to lastKey so that the
	// inlined test in page needs no nil check of last.
	lastKey decodeKey
	lastGen uint64
	last    *decodedPage

	// SB.Fused counts instructions retired in fused runs of two or
	// more (see fuse.go). Host-side observability only; nothing
	// simulated reads it.
	SB struct{ Fused uint64 }

	// Dropped counts decoded pages dropped because their write
	// generation moved. Host-side observability only, like SB.
	Dropped uint64
}

// NewDecodeCache returns an empty cache.
func NewDecodeCache() *DecodeCache {
	return &DecodeCache{
		pages:   make(map[decodeKey]*decodedPage),
		lastGen: ^uint64(0), // no page reaches this generation: the memo starts empty
	}
}

// page returns the decoded page for physical page page at write
// generation gen. The same page at the same generation as the previous
// call is served inline; lookup does the rest.
func (c *DecodeCache) page(page uint64, def32 bool, gen uint64) *decodedPage {
	if c.lastKey == (decodeKey{page, def32}) && c.lastGen == gen {
		return c.last
	}
	return c.lookup(page, def32, gen)
}

// lookup is page's map path: it finds or creates the decoded page and
// drops its decodes if the generation moved since they were made. It
// is kept out of line: inlined into page, it would push page past the
// inliner's budget, and page would no longer be inlined at the fetches.
//
//go:noinline
func (c *DecodeCache) lookup(page uint64, def32 bool, gen uint64) *decodedPage {
	key := decodeKey{page: page, def32: def32}
	dp := c.pages[key]
	switch {
	case dp == nil:
		if len(c.pages) >= decodeCacheMaxPages {
			c.pages = make(map[decodeKey]*decodedPage, decodeCacheMaxPages)
		}
		dp = &decodedPage{gen: gen}
		c.pages[key] = dp
	case dp.gen != gen:
		c.Dropped++
		*dp = decodedPage{gen: gen}
	}
	c.lastKey, c.lastGen, c.last = key, gen, dp
	return dp
}

// cacheInst records a decode in the page and marks its bytes in the
// page's code map, so that a store to them drops it.
func cacheInst(dp *decodedPage, code CodeMap, off int, inst *Inst) {
	code.Mark(off, inst.Len)
	dp.insts[off] = inst
}

// errPageSpill signals that a decode ran off the end of its code page;
// the interpreter retries through the slow per-byte path, which handles
// the next page's translation (and its faults and charges) properly.
type errPageSpill struct{}

func (errPageSpill) Error() string { return "x86: instruction fetch crossed a page boundary" }

// pageFetcher feeds the decoder from a raw code-page slice.
type pageFetcher struct {
	data []byte
	off  int
}

func (f *pageFetcher) FetchByte() (byte, error) {
	if f.off >= len(f.data) {
		return 0, errPageSpill{}
	}
	b := f.data[f.off]
	f.off++
	return b, nil
}
