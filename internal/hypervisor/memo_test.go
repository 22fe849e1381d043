package hypervisor

import (
	"bytes"
	"fmt"
	"testing"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/x86"
)

// memoPages are the guest pages FuzzGuestEnvMemo accesses: four pages
// nothing has written yet, of which 5 and 0x45 share a memo entry, and
// the device page.
var memoPages = [...]uint32{5, 6, 0x10, 0x45, envDevPage}

// memoFrames are the guest frames a remapped PTE may point at, page 0
// among them: its TLB entries have frame 0, as emptied TLB slots do.
var memoFrames = [...]uint32{5, 6, 0, envDevPage}

// memoRAM are the guest-physical pages whose host frames
// FuzzGuestEnvMemo compares after every operation: page 0, the page
// table, memoPages and the pages a large entry may shift them onto.
var memoRAM = [...]uint32{0, 2, 5, 6, 7, 8, 0x10, 0x11, 0x12, 0x45, 0x46, 0x47,
	envDevPage, envDevPage + 1, envDevPage + 2}

// memoConfig gives FuzzGuestEnvMemo small TLBs, so entries are evicted
// often, and small RAM, so machines are cheap to build.
var memoConfig = hw.Config{RAMSize: 8 << 20, TLBSmall: 8, TLBLarge: 2}

// memoOtherTag is the TLB tag the evicting fills use; no front end
// under test has it.
const memoOtherTag hw.TLBTag = 0x7fff

// FuzzGuestEnvMemo operations. Each takes eight bytes: the code, an
// index into memoPages, a little-endian page offset, a size selector and
// three operand bytes. A read or write may cross into the next page; it
// is then split into byte accesses, as x86.Interp splits it.
const (
	memoRead = iota
	memoWrite
	memoExec
	memoInvlpg
	memoCR3    // reload: flush the tag
	memoPaging // toggle CR0.PG, without a flush
	memoEvict  // fill both TLB arrays under another tag
	memoRemap  // point the page's guest PTE at a memoFrames page, then INVLPG
	memoLarge  // insert a large entry over the page
	memoRevoke // revoke the page's frame from the VM
	memoGrant  // delegate it to the VM again
	memoDMA    // Memory.WriteBytes into the page
	memoOps
)

type memoOp struct {
	code byte
	page uint32
	off  uint32
	size int
	arg  uint32 // 24 bits
}

func decodeMemoOp(b []byte) memoOp {
	var w [8]byte
	copy(w[:], b)
	size := [...]int{1, 2, 4}[w[4]%3]
	return memoOp{
		code: w[0] % memoOps,
		page: memoPages[int(w[1])%len(memoPages)],
		off:  (uint32(w[2]) | uint32(w[3])<<8) & 0xfff,
		size: size,
		arg:  uint32(w[5]) | uint32(w[6])<<8 | uint32(w[7])<<16,
	}
}

// inPage is op's offset moved back so that its size fits in the page,
// for the operations that must not cross it.
func (op memoOp) inPage() uint32 { return min(op.off, hw.PageSize-uint32(op.size)) }

// crosses reports whether op's access crosses the page end.
func (op memoOp) crosses() bool { return op.off+uint32(op.size) > hw.PageSize }

// memoOpBytes encodes one operation for the seed corpus.
func memoOpBytes(code byte, page int, off uint16, size byte, arg uint32) []byte {
	return []byte{code, byte(page), byte(off), byte(off >> 8), size, byte(arg), byte(arg >> 8), byte(arg >> 16)}
}

// apply performs op on c's front end and describes its result.
func (c envCase) apply(op memoOp) string {
	e, st := c.env, c.st
	va := op.page<<12 | op.off
	switch op.code {
	case memoRead:
		if op.crosses() {
			var res []any
			for i := op.size - 1; i >= 0; i-- {
				v, err := e.MemRead(st, va+uint32(i), 1, x86.AccessRead)
				res = append(res, v, err)
			}
			return fmt.Sprint(res...)
		}
		v, err := e.MemRead(st, va, op.size, x86.AccessRead)
		return fmt.Sprint(v, err)
	case memoWrite:
		v := op.arg * 0x101
		if op.crosses() {
			var res []any
			for i := range op.size {
				res = append(res, e.MemWrite(st, va+uint32(i), 1, v>>(8*i)))
			}
			return fmt.Sprint(res...)
		}
		return fmt.Sprint(e.MemWrite(st, va, op.size, v))
	case memoExec:
		// Mark the fetched bytes as cached code, as the decode cache
		// would, so that later stores to them move the generation.
		data, code, frame, gen, charged, err := e.ExecPage(st, va)
		if data != nil {
			code.Mark(int(op.inPage()), op.size)
		}
		return fmt.Sprint(data != nil, frame, gen, charged, err)
	case memoInvlpg:
		e.InvalidateTLB(st, false, va)
	case memoCR3:
		e.InvalidateTLB(st, true, 0)
	case memoPaging:
		st.CR0 ^= x86.CR0PG
	case memoEvict:
		for i := range uint32(memoConfig.TLBSmall) {
			e.tlb.InsertSmall(memoOtherTag, i<<12, uint64(i), true, true, false)
		}
		for i := range uint32(memoConfig.TLBLarge) {
			e.tlb.InsertLarge(memoOtherTag, i<<22, uint64(i)<<10, true, true, false)
		}
	case memoRemap:
		pte := memoFrames[op.arg%uint32(len(memoFrames))]<<12 | x86.PTEPresent
		if op.arg&0x100 == 0 {
			pte |= x86.PTEWrite
		}
		e.mem.Write32(c.hostAddr(0x2000+4*uint64(op.page)), pte)
		e.InvalidateTLB(st, false, va)
	case memoLarge:
		frame := uint64(c.hostAddr(0))>>12 + uint64(op.arg%3)
		e.tlb.InsertLarge(e.tag, va, frame, op.arg&0x100 == 0, true, false)
	case memoRevoke:
		if tv := c.vm; tv != nil {
			n, err := tv.k.RevokeMem(tv.vmm, uint32(tv.base>>12)+op.page, 1, false)
			return fmt.Sprint(n, err)
		}
	case memoGrant:
		if tv := c.vm; tv != nil {
			return fmt.Sprint(tv.k.DelegateMem(tv.vmm, uint32(tv.base>>12)+op.page, tv.vm, op.page, 1,
				cap.RightRead|cap.RightWrite|cap.RightExec))
		}
	case memoDMA:
		b := []byte{byte(op.arg), byte(op.arg >> 8), byte(op.arg >> 16)}
		e.mem.WriteBytes(c.hostAddr(uint64(op.page<<12|op.inPage())), b[:op.size%3+1])
	}
	return ""
}

// diffMemo compares everything an operation may have changed on two
// machines: TLB statistics, the CPU clock, the device's accesses, the
// shadow table and the bytes of the memoRAM pages.
func diffMemo(a, b envCase) string {
	ea, eb := a.env, b.env
	if ea.tlb.Stats != eb.tlb.Stats {
		return fmt.Sprintf("TLB stats %+v, without memo %+v", ea.tlb.Stats, eb.tlb.Stats)
	}
	if ca, cb := ea.plat.BootCPU().Clock.Now(), eb.plat.BootCPU().Clock.Now(); ca != cb {
		return fmt.Sprintf("clock %d, without memo %d", ca, cb)
	}
	if *a.dev != *b.dev {
		return fmt.Sprintf("device saw %+v, without memo %+v", *a.dev, *b.dev)
	}
	if ea.shadow != nil && (ea.shadow.Fills != eb.shadow.Fills || ea.shadow.Len() != eb.shadow.Len()) {
		return fmt.Sprintf("shadow fills/live %d/%d, without memo %d/%d",
			ea.shadow.Fills, ea.shadow.Len(), eb.shadow.Fills, eb.shadow.Len())
	}
	for _, page := range memoRAM {
		addr := a.hostAddr(uint64(page) << 12)
		if !bytes.Equal(ea.mem.ReadBytes(addr, hw.PageSize), eb.mem.ReadBytes(addr, hw.PageSize)) {
			return fmt.Sprintf("guest page %#x differs", page)
		}
	}
	return ""
}

// freeState is what an access FreeAccess admits may not change, but
// for the TLB's hit count: the clock, the TLB statistics, the shadow
// table, the device's accesses and the write generations of the
// memoRAM pages.
type freeState struct {
	clock                  hw.Cycles
	tlb                    hw.TLBStats
	fills, flushes, shadow uint64
	dev                    envMMIO
	gens                   [len(memoRAM)]uint64
}

func (c envCase) freeState() freeState {
	e := c.env
	s := freeState{clock: e.clk.Now(), tlb: e.tlb.Stats, dev: *c.dev}
	if e.shadow != nil {
		s.fills, s.flushes, s.shadow = e.shadow.Fills, e.shadow.Flushes, uint64(e.shadow.Len())
	}
	for i, page := range memoRAM {
		if p, ok := e.mem.Page(c.hostAddr(uint64(page) << 12)); ok {
			_, _, _, s.gens[i] = p.View()
		}
	}
	return s
}

// runMemoOps drives two identical machines per paging mode through the
// operations encoded in ops, clearing the memo of one before every
// operation, and fails at the first difference. Before each read and
// write it asks the machine with the memo whether the access is free
// (FreeAccess); if so, the access must count one TLB hit and change
// nothing else freeState holds.
func runMemoOps(t *testing.T, ops []byte) {
	with, without := envCases(t, memoConfig), envCases(t, memoConfig)
	for i := range with {
		a, b := with[i], without[i]
		for n := 0; n*8 < len(ops); n++ {
			op := decodeMemoOp(ops[n*8:])
			b.env.reads, b.env.writes = memo{}, memo{}
			access := op.code == memoRead || op.code == memoWrite
			free := access && a.env.FreeAccess(a.st, op.page<<12|op.off, op.size, op.code == memoWrite)
			var before freeState
			if free {
				before = a.freeState()
			}
			got, want := a.apply(op), b.apply(op)
			if got != want {
				t.Fatalf("%s: op %d %+v returned %q, without memo %q", a.name, n, op, got, want)
			}
			if diff := diffMemo(a, b); diff != "" {
				t.Fatalf("%s: after op %d %+v: %s", a.name, n, op, diff)
			}
			if free {
				want := before
				want.tlb.Hits++
				if after := a.freeState(); after != want {
					t.Fatalf("%s: op %d %+v was free, but moved\n %+v\nto\n %+v", a.name, n, op, before, after)
				}
			}
		}
	}
}

// FuzzGuestEnvMemo checks the front end's memo of TLB hits against the
// same machine without it: in every paging mode, after every operation,
// results, TLB statistics, cycles, device accesses and RAM agree. It
// checks the FreeAccess query against the real access too (runMemoOps).
// The seeds hold one case per hazard the memo must notice, and one per
// reason FreeAccess must refuse an access whose page is warm.
func FuzzGuestEnvMemo(f *testing.F) {
	op := memoOpBytes
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	read := func(page int) []byte { return op(memoRead, page, 0x10, 2, 0) }
	// warm fills the TLB, then both memo halves from TLB hits.
	warm := func(page int) []byte {
		return seq(op(memoWrite, page, 0x10, 2, 0x1234), read(page), op(memoWrite, page, 0x14, 2, 0x5678),
			op(memoExec, page, 0, 0, 0))
	}
	for _, s := range [][]byte{
		// Each width, then a fetch, twice.
		seq(warm(0), op(memoRead, 0, 0xffc, 0, 0), op(memoRead, 0, 0xffe, 1, 0), op(memoWrite, 0, 0xfff, 0, 7), warm(0)),
		// INVLPG and a CR3 reload.
		seq(warm(0), op(memoInvlpg, 0, 0, 0, 0), warm(0), op(memoCR3, 0, 0, 0, 0), warm(0)),
		// Paging off and on again without a flush.
		seq(warm(0), op(memoPaging, 0, 0, 0, 0), warm(0), op(memoPaging, 0, 0, 0, 0), warm(0)),
		// Fills under another tag until the memoized entries are evicted.
		seq(warm(0), warm(1), op(memoEvict, 0, 0, 0, 0), warm(1), warm(0)),
		// A guest PTE remap followed by INVLPG.
		seq(warm(0), warm(1), op(memoRemap, 0, 0, 0, 1), warm(0), op(memoRemap, 0, 0, 0, 0), warm(0)),
		// A remap onto frame 0, then INVLPG: the emptied slot holds
		// frame 0 too, but not the key.
		seq(op(memoRemap, 0, 0, 0, 2), warm(0), op(memoInvlpg, 0, 0, 0, 0), read(0), warm(0)),
		// A TLB hit on a page sharing the memo entry that fills nothing
		// (absent, then the device), then INVLPG of the memoized page.
		seq(warm(0), read(3), read(3), op(memoInvlpg, 0, 0, 0, 0), read(0), warm(0),
			op(memoRemap, 3, 0, 0, 3), read(3), read(3), op(memoInvlpg, 0, 0, 0, 0), read(0)),
		// A large entry inserted over memoized small ones.
		seq(warm(0), warm(1), op(memoLarge, 0, 0, 0, 1), warm(0), warm(1)),
		// A write to a page whose read half is warm but whose mapping is
		// read-only, through the PTE and through a large entry.
		seq(warm(1), op(memoRemap, 1, 0, 0, 0x101), op(memoRead, 1, 0, 2, 0), op(memoWrite, 1, 0, 2, 9),
			op(memoLarge, 1, 0, 0, 0x100), op(memoRead, 1, 0, 2, 0), op(memoWrite, 1, 0, 2, 9)),
		// A revoke of the frame, and the grant back.
		seq(warm(0), op(memoRevoke, 0, 0, 0, 0), warm(0), op(memoGrant, 0, 0, 0, 0), warm(0)),
		// A DMA-style store into a memoized page.
		seq(warm(0), op(memoDMA, 0, 0x10, 2, 0xabcdef), warm(0)),
		// The device page.
		seq(warm(4), op(memoRead, 4, 4, 2, 0), op(memoWrite, 4, 8, 1, 5), op(memoRead, 4, 8, 1, 0)),
		// A never-written page, read first, then written.
		seq(op(memoRead, 2, 0x20, 2, 0), op(memoRead, 2, 0x20, 2, 0), op(memoExec, 2, 0x20, 0, 0),
			op(memoWrite, 2, 0x20, 2, 0x55), op(memoRead, 2, 0x20, 2, 0)),

		// Refusals of FreeAccess, each after warming both pages the
		// access touches. An access crossing from page 5 into page 6:
		seq(warm(0), warm(1), op(memoRead, 0, 0xffe, 2, 0), op(memoWrite, 0, 0xfff, 1, 0x77),
			op(memoRead, 0, 0xffc, 2, 0)),
		// The device page:
		seq(warm(4), warm(4), op(memoRead, 4, 0x10, 2, 0), op(memoWrite, 4, 0x10, 2, 3)),
		// A store over code marked by memoExec, and one next to it:
		seq(warm(0), op(memoExec, 0, 0x10, 1, 0), op(memoWrite, 0, 0x12, 0, 1), op(memoWrite, 0, 0x11, 0, 1),
			op(memoRead, 0, 0x10, 2, 0), op(memoWrite, 0, 0x14, 2, 9)),
		// A read-only mapping through the PTE, then through a large entry:
		seq(warm(1), op(memoRemap, 1, 0, 0, 0x101), op(memoRead, 1, 0x10, 2, 0), op(memoWrite, 1, 0x10, 2, 9)),
		seq(warm(1), op(memoLarge, 1, 0, 0, 0x100), op(memoRead, 1, 0x10, 2, 0), op(memoWrite, 1, 0x10, 2, 9)),
		// Paging toggled off:
		seq(warm(0), op(memoPaging, 0, 0, 0, 0), op(memoRead, 0, 0x10, 2, 0), op(memoWrite, 0, 0x10, 2, 9)),
		// A revoked frame:
		seq(warm(0), op(memoRevoke, 0, 0, 0, 0), op(memoRead, 0, 0x10, 2, 0), op(memoWrite, 0, 0x10, 2, 9)),
		// An evicted entry:
		seq(warm(0), op(memoEvict, 0, 0, 0, 0), op(memoRead, 0, 0x10, 2, 0), op(memoWrite, 0, 0x10, 2, 9)),
	} {
		f.Add(s)
	}
	f.Fuzz(runMemoOps)
}
