// Package prof is the virtual-time sampling profiler of the simulation:
// where the tracer answers "which virtualization events happened", the
// profiler answers "which guest code is paying for them".
//
// The profiler is driven entirely by the virtual clock. Every Period
// cycles of virtual time a sample of (guest RIP, CS default size,
// execution mode) lands in a fixed-capacity per-CPU buffer, together
// with a best-effort EBP-chain walk of the guest stack. Independently,
// every VM exit, vTLB fill and VMM-emulated instruction is attributed —
// with its exact modeled cost — to the guest instruction that caused
// it, so exit-heavy addresses stand out even between sample points.
//
// The design contract is the same zero-perturbation rule the trace
// layer obeys (enforced by the nova-vet tracepure analyzer and the A/B
// identity test): recording a sample must never charge simulated
// cycles, mutate guest-visible state, or read the wall clock. Stack
// walks therefore run over pure, bounds-checked memory readers that
// decline MMIO and never set page-table accessed bits. Because both the
// sampling grid and every recorded field derive from deterministic
// simulation state, two profiled runs of the same workload emit
// byte-identical profiles.
package prof

import (
	"nova/internal/hw"
)

// Mode classifies where the sampled virtual time was spent — the
// paper's own cost decomposition (guest work vs. virtualization work).
type Mode uint8

// Execution modes.
const (
	// ModeGuest: the vCPU was executing guest instructions.
	ModeGuest Mode = iota
	// ModeEmulation: the user-level VMM was emulating an instruction.
	ModeEmulation
	// ModeKernel: the microhypervisor was handling an exit or fill.
	ModeKernel
	// ModeServer: a user-level server EC (disk, network) was running;
	// the sample address is the EC's id, not a guest address.
	ModeServer
)

// NumModes sizes per-mode tables.
const NumModes = int(ModeServer) + 1

var modeNames = [NumModes]string{
	ModeGuest:     "guest",
	ModeEmulation: "emulation",
	ModeKernel:    "kernel",
	ModeServer:    "server",
}

func (m Mode) String() string {
	if int(m) < NumModes {
		return modeNames[m]
	}
	return "mode?"
}

// AttribKind classifies an exact-cost attribution record: which
// virtualization event charged the cycles that land on a guest address.
type AttribKind uint8

// Attribution kinds.
const (
	// AttribExit: one VM-exit window (exit to resume), attributed to
	// the guest instruction that took the exit.
	AttribExit AttribKind = iota
	// AttribVTLBFill: one shadow-page-table fill (§5.3).
	AttribVTLBFill
	// AttribEmulate: one VMM-emulated instruction (§7.1).
	AttribEmulate
)

// NumAttribKinds sizes per-kind tables.
const NumAttribKinds = int(AttribEmulate) + 1

var attribKindNames = [NumAttribKinds]string{
	AttribExit:     "exit",
	AttribVTLBFill: "vtlb-fill",
	AttribEmulate:  "emulate",
}

func (k AttribKind) String() string {
	if int(k) < NumAttribKinds {
		return attribKindNames[k]
	}
	return "attrib?"
}

// MemReader reads one little-endian 32-bit word of guest-virtual
// memory with no side effects whatsoever: no cycle charges, no TLB or
// shadow fills, no accessed/dirty-bit updates, no MMIO routing. A false
// return means the address does not resolve to plain RAM; the stack
// walker treats that as the end of the frame chain.
type MemReader func(va uint32) (uint32, bool)

// GuestCtx carries the architectural context of one sample point.
type GuestCtx struct {
	// RIP is the sampled linear instruction address (CS.Base + EIP).
	// For ModeServer samples it is the server EC's id instead.
	RIP uint32
	// Def32 is the code segment's D bit at the sample point.
	Def32 bool
	// EBP is the frame-pointer offset within the stack segment.
	EBP uint32
	// StackBase/CodeBase linearize stack and code offsets (SS.Base and
	// CS.Base; zero in flat or real-address setups where they match).
	StackBase uint32
	CodeBase  uint32
	// Read, when non-nil, enables the EBP-chain stack walk.
	Read MemReader
}

// MaxFrames bounds the stack walk: the sampled address plus at most
// fifteen return addresses.
const MaxFrames = 16

// rec is one stored sample. Frames are inline so pushing a sample never
// allocates (the trace-ring rule: emission never blocks or allocates).
type rec struct {
	time   hw.Cycles
	weight uint64
	mode   Mode
	def32  bool
	n      uint8
	frames [MaxFrames]uint32
}

// Buf is one CPU's fixed-capacity sample buffer. When full, the oldest
// sample is overwritten and counted, exactly like a trace ring.
type Buf struct {
	buf []rec
	w   int    // next write index
	n   int    // live samples
	seq uint64 // samples ever pushed
}

func newBuf(capacity int) *Buf {
	if capacity < 1 {
		capacity = 1
	}
	return &Buf{buf: make([]rec, capacity)}
}

// Len returns the number of live samples.
func (b *Buf) Len() int { return b.n }

// Overwritten returns how many samples were dropped to make room.
func (b *Buf) Overwritten() uint64 { return b.seq - uint64(b.n) }

func (b *Buf) push(r rec) {
	b.buf[b.w] = r
	b.seq++
	b.w++
	if b.w == len(b.buf) {
		b.w = 0
	}
	if b.n < len(b.buf) {
		b.n++
	}
}

// recs returns the live samples oldest-first.
func (b *Buf) recs() []rec {
	out := make([]rec, 0, b.n)
	start := b.w - b.n
	if start < 0 {
		start += len(b.buf)
	}
	for i := 0; i < b.n; i++ {
		out = append(out, b.buf[(start+i)%len(b.buf)])
	}
	return out
}

// Profiler is the per-platform sampling sink. All methods are nil-safe
// so instrumented code needs no enablement checks: a nil *Profiler
// means profiling is off and every call is a two-instruction no-op.
type Profiler struct {
	// Period is the sampling grid spacing in virtual cycles.
	Period uint64

	bufs []*Buf
	// next is the per-CPU virtual time of the next sampling grid
	// point. Zero means the CPU has not been observed yet; the first
	// observation anchors the grid one period later.
	next []hw.Cycles

	attrib attribSet
}

// New creates a profiler sampling every period cycles with one buffer
// of the given capacity per CPU.
func New(cpus int, period uint64, capacity int) *Profiler {
	if period == 0 {
		period = 10_000
	}
	p := &Profiler{Period: period}
	for i := 0; i < cpus; i++ {
		p.bufs = append(p.bufs, newBuf(capacity))
		p.next = append(p.next, 0)
	}
	return p
}

// Tick advances cpu's sampling grid to now and, when one or more grid
// points were crossed since the last call, records a single sample
// weighted by the number of crossings. Callers invoke it from their
// execution hot loops; virtually all calls return after one compare.
func (p *Profiler) Tick(cpu int, now hw.Cycles, mode Mode, g GuestCtx) {
	if p == nil || cpu < 0 || cpu >= len(p.bufs) {
		return
	}
	next := p.next[cpu]
	if next == 0 {
		// First observation on this CPU: anchor the grid.
		p.next[cpu] = now + hw.Cycles(p.Period)
		return
	}
	if now < next {
		return
	}
	period := hw.Cycles(p.Period)
	weight := uint64((now-next)/period) + 1
	p.next[cpu] = next + hw.Cycles(weight)*period

	r := rec{time: now, weight: weight, mode: mode, def32: g.Def32}
	if g.Read != nil {
		var out [MaxFrames]uint32
		n := WalkEBP(g.RIP, g.EBP, g.StackBase, g.CodeBase, g.Read, out[:])
		r.frames = out
		r.n = uint8(n)
	} else {
		r.frames[0] = g.RIP
		r.n = 1
	}
	p.bufs[cpu].push(r)
}

// Next returns cpu's next sampling grid point: the earliest virtual
// time at which Tick records a sample. It is 0 until cpu's first Tick
// or SkipIdle anchors the grid, so a caller that ticks whenever
// now >= Next(cpu) makes that anchoring call too. Run loops use it as a
// fuse horizon: no instruction that starts before it can be sampled.
func (p *Profiler) Next(cpu int) hw.Cycles {
	if p == nil || cpu < 0 || cpu >= len(p.next) {
		return 0
	}
	return p.next[cpu]
}

// SkipIdle advances cpu's sampling grid past an idle period (HLT, event
// waits) without recording: idle virtual time belongs to no code
// address. Grid points crossed while idle are simply dropped.
func (p *Profiler) SkipIdle(cpu int, now hw.Cycles) {
	if p == nil || cpu < 0 || cpu >= len(p.next) {
		return
	}
	next := p.next[cpu]
	if next == 0 {
		p.next[cpu] = now + hw.Cycles(p.Period)
		return
	}
	if now < next {
		return
	}
	period := hw.Cycles(p.Period)
	crossed := uint64((now-next)/period) + 1
	p.next[cpu] = next + hw.Cycles(crossed)*period
}

// Attribute adds one virtualization event of the given kind at the
// guest linear address rip, carrying its exact modeled cost.
func (p *Profiler) Attribute(kind AttribKind, rip uint32, def32 bool, cycles uint64) {
	if p == nil {
		return
	}
	p.attrib.add(attribKey(kind, rip, def32), cycles)
}

// attribKey packs (kind, def32, rip) into one ordered key.
func attribKey(kind AttribKind, rip uint32, def32 bool) uint64 {
	k := uint64(kind) << 33
	if def32 {
		k |= 1 << 32
	}
	return k | uint64(rip)
}

func attribKeyFields(k uint64) (kind AttribKind, rip uint32, def32 bool) {
	return AttribKind(k >> 33), uint32(k), k&(1<<32) != 0
}

// attribSet aggregates attribution records in sorted parallel slices,
// so encoding never iterates a map and output order is deterministic
// by construction.
type attribSet struct {
	keys   []uint64
	counts []uint64
	cycles []uint64
}

func (a *attribSet) add(key, cy uint64) {
	lo, hi := 0, len(a.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.keys) && a.keys[lo] == key {
		a.counts[lo]++
		a.cycles[lo] += cy
		return
	}
	a.keys = append(a.keys, 0)
	copy(a.keys[lo+1:], a.keys[lo:])
	a.keys[lo] = key
	a.counts = append(a.counts, 0)
	copy(a.counts[lo+1:], a.counts[lo:])
	a.counts[lo] = 1
	a.cycles = append(a.cycles, 0)
	copy(a.cycles[lo+1:], a.cycles[lo:])
	a.cycles[lo] = cy
}

// CodeSite is a snapshot of the instruction bytes at a hot address,
// captured after the run so reports can disassemble hot sites.
type CodeSite struct {
	Addr  uint32
	Def32 bool
	Bytes []byte
}

// maxInstBytes is the architectural x86 instruction-length limit.
const maxInstBytes = 15

// CaptureCode snapshots up to maxInstBytes of code at each of the topN
// hottest addresses, through a pure byte reader (same contract as
// MemReader). Nil-safe on both.
func (d *Data) CaptureCode(topN int, read func(va uint32) (byte, bool)) {
	if d == nil || read == nil {
		return
	}
	d.Code = d.Code[:0]
	for _, h := range d.Hot(topN) {
		var buf [maxInstBytes]byte
		n := 0
		for n < maxInstBytes {
			b, ok := read(h.Addr + uint32(n))
			if !ok {
				break
			}
			buf[n] = b
			n++
		}
		if n == 0 {
			continue
		}
		site := CodeSite{Addr: h.Addr, Def32: h.Def32}
		site.Bytes = append(site.Bytes, buf[:n]...)
		d.Code = append(d.Code, site)
	}
}

// Sample is the decoded form of one recorded sample.
type Sample struct {
	Time hw.Cycles
	// Weight is the number of sampling grid points this sample stands
	// for (greater than one when several periods elapsed between
	// observation points).
	Weight uint64
	Mode   Mode
	Def32  bool
	// Frames holds linear addresses leaf-first: Frames[0] is the
	// sampled address, the rest are best-effort return addresses.
	Frames []uint32
}

// AttribEntry is the decoded form of one attribution aggregate.
type AttribEntry struct {
	Kind   AttribKind
	RIP    uint32
	Def32  bool
	Count  uint64
	Cycles uint64
}

// Data is the profile section of an observability file, the unit every
// renderer operates on.
type Data struct {
	Period      uint64     // sampling grid spacing, virtual cycles
	Capacity    int        // per-CPU sample-buffer capacity
	Samples     [][]Sample // index = CPU, oldest first
	Overwritten []uint64   // per CPU
	Attrib      []AttribEntry
	Code        []CodeSite
}

// Data snapshots the live profiler; nil when profiling is off. Code is
// empty until CaptureCode fills it.
func (p *Profiler) Data() *Data {
	if p == nil {
		return nil
	}
	d := &Data{Period: p.Period}
	for _, b := range p.bufs {
		d.Capacity = len(b.buf)
		recs := b.recs()
		samples := make([]Sample, 0, len(recs))
		for _, r := range recs {
			s := Sample{Time: r.time, Weight: r.weight, Mode: r.mode, Def32: r.def32}
			s.Frames = append(s.Frames, r.frames[:r.n]...)
			samples = append(samples, s)
		}
		d.Samples = append(d.Samples, samples)
		d.Overwritten = append(d.Overwritten, b.Overwritten())
	}
	for i, key := range p.attrib.keys {
		kind, rip, def32 := attribKeyFields(key)
		d.Attrib = append(d.Attrib, AttribEntry{
			Kind: kind, RIP: rip, Def32: def32,
			Count: p.attrib.counts[i], Cycles: p.attrib.cycles[i],
		})
	}
	return d
}

// TotalSamples returns the number of recorded grid points (sum of
// sample weights).
func (d *Data) TotalSamples() uint64 {
	var total uint64
	for _, per := range d.Samples {
		for _, s := range per {
			total += s.Weight
		}
	}
	return total
}
