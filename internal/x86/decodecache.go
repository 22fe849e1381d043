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
// a stable identifier for it (its physical page number), the page's
// current write generation, and the cycles the translation charged
// (zero on a TLB hit), which StepBlock counts against its window.
//
// A nil data slice with a nil error means "no fast path" (the page is
// MMIO-backed or otherwise not plain RAM); the interpreter then falls
// back to fetching through MemRead, which is free of double charging
// because the translation just performed is hit in the TLB.
type ExecPager interface {
	ExecPage(st *CPUState, va uint32) (data []byte, page, gen, charged uint64, err error)
}

// decodeKey identifies one cached code page: decoded instructions depend
// on the page's bytes and on the code segment's default operand size.
type decodeKey struct {
	page  uint64
	def32 bool
}

// decodedPage holds the decode results of one physical page, indexed by
// page offset. Only instructions contained entirely within the page are
// cached; gen is the physical page's write generation at fill time.
//
// Staleness is detected in two tiers. While the page's write generation
// still equals gen, every cached entry is trivially valid and lookups
// are a bare array load. Once any store lands in the page — guest SMC,
// VMM or BIOS writes, device DMA — the generation moves and the page
// enters verify mode for good: each lookup then memcmps the entry's
// recorded encoding (Inst.enc, Superblock.enc) against the live page
// bytes, dropping and re-decoding only entries whose bytes actually
// changed. Decode is pure in the bytes, so matching bytes prove the
// cached result. This keeps code pages that also hold writable data
// (a guest patching one routine, a DMA buffer sharing the page) from
// repeatedly wiping every decode on the page, which would make the
// cache a net loss on such workloads.
//
// blocks caches superblocks (see superblock.go) by their entry offset,
// verified the same way over their whole byte span. nblocks counts the
// real (non-sentinel) blocks currently cached, so whole-cache resets
// can be accounted without scanning the array.
type decodedPage struct {
	gen     uint64
	insts   [codePageSize]*Inst
	blocks  [codePageSize]*Superblock
	nblocks int
}

// decodeCacheMaxPages bounds host memory use. Overflow resets the whole
// cache: dropping entries is always safe (they are re-decoded on demand)
// and code working sets larger than this are rare.
const decodeCacheMaxPages = 64

// DecodeCache memoizes instruction decode per physical code page. It is
// shared per vCPU and validated against physical-page write generations,
// so guest stores into code pages (self-modifying code), VMM or BIOS
// writes, and device DMA all invalidate stale decodes uniformly —
// regardless of which virtual mapping the writes went through.
type DecodeCache struct {
	pages map[decodeKey]*decodedPage

	// One-entry MRU memo: consecutive fetches overwhelmingly hit the
	// same code page, and the map hash dominates the lookup otherwise.
	lastKey decodeKey
	last    *decodedPage

	// SB counts superblock activity (see superblock.go). Host-side
	// observability only; nothing simulated reads it.
	SB SuperblockStats

	// liveBlocks tracks the real superblocks across all cached pages,
	// so a whole-cache reset can account its invalidations without
	// ranging over the page map.
	liveBlocks int

	// noBlock marks entry points where no run of at least two fusible
	// instructions exists (per cache, so machines in one process share
	// no mutable-looking globals).
	noBlock *Superblock
}

// NewDecodeCache returns an empty cache.
func NewDecodeCache() *DecodeCache {
	return &DecodeCache{
		pages:   make(map[decodeKey]*decodedPage),
		noBlock: &Superblock{},
	}
}

// page returns the decoded page for key and whether it is fresh: fresh
// means the backing page's write generation still matches fill time, so
// every cached entry is valid as-is. A stale page is NOT reset — its
// entries are individually byte-verified at lookup (see instValid and
// the superblock span check), so stores into the data half of a mixed
// code/data page cost a short memcmp instead of a full re-decode.
func (c *DecodeCache) page(page uint64, def32 bool, gen uint64) (dp *decodedPage, fresh bool) {
	key := decodeKey{page: page, def32: def32}
	dp = c.last
	if dp == nil || c.lastKey != key {
		dp = c.pages[key]
		if dp == nil {
			if len(c.pages) >= decodeCacheMaxPages {
				c.SB.Invalidated += uint64(c.liveBlocks)
				c.liveBlocks = 0
				c.pages = make(map[decodeKey]*decodedPage, decodeCacheMaxPages)
			}
			dp = &decodedPage{gen: gen}
			c.pages[key] = dp
		}
		c.lastKey, c.last = key, dp
	}
	return dp, dp.gen == gen
}

// instValid reports whether a cached decode still matches the live page
// bytes it was made from. Called only on stale pages; on fresh pages the
// generation match already proves validity.
func instValid(inst *Inst, data []byte, off int) bool {
	return bytesEqual(data[off:off+inst.Len], inst.enc[:inst.Len])
}

// cacheInst records a decode in the page, snapshotting the bytes it was
// made from so later lookups can verify it after the page is written.
func cacheInst(dp *decodedPage, data []byte, off int, inst *Inst) {
	copy(inst.enc[:], data[off:off+inst.Len])
	dp.insts[off] = inst
}

// bytesEqual is bytes.Equal without the import: spans here are at most
// 15 bytes (one instruction) or a few dozen (one superblock), where the
// simple loop is as fast as the vectorized runtime call.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
