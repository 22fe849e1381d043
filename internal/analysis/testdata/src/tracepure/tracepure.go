// Package fixture seeds tracepure violations: trace-layer code that
// perturbs the simulation, and emission call sites whose arguments do
// work. The analyzer matches the trace layer by receiver-type name
// (Tracer, Ring, Histogram, ..., DecodeCache) and the
// record path by receiver and method name (Kernel.Record, VMM.record),
// so this package models it the same way the chargecheck fixture
// models Clock.
package fixture

import "time"

// Cycles is virtual time.
type Cycles uint64

// Clock mirrors hw.Clock.
type Clock struct{ now Cycles }

// Charge advances virtual time by n cycles of work.
func (c *Clock) Charge(n Cycles) { c.now += n }

// Now reads virtual time (pure; the emission idiom).
func (c *Clock) Now() Cycles { return c.now }

// Mem mirrors the simulated physical memory.
type Mem struct{ word uint32 }

// Write32 is a platform mutator by name.
func (m *Mem) Write32(off uint32, v uint32) { m.word = v }

// Tracer mirrors trace.Tracer.
type Tracer struct {
	events []uint64
	clk    *Clock
	mem    *Mem
}

// Emit records one event without touching the simulation.
func (t *Tracer) Emit(now Cycles, a uint64) {
	t.events = append(t.events, uint64(now)+a)
}

// BadCharge perturbs virtual time from inside the trace layer.
func (t *Tracer) BadCharge(n Cycles) { // want "charges simulated cycles"
	t.clk.Charge(n)
	t.events = append(t.events, uint64(n))
}

// BadChargeTransitive hides the charge behind a helper.
func (t *Tracer) BadChargeTransitive() { // want "charges simulated cycles"
	t.account()
}

func (t *Tracer) account() { // want "charges simulated cycles"
	t.clk.Charge(1)
}

// BadMutate writes guest-visible state while recording.
func (t *Tracer) BadMutate() { // want "mutates guest-visible platform state"
	t.mem.Write32(0, 1)
}

// BadWallClock timestamps events with host time instead of the
// virtual clock.
func (t *Tracer) BadWallClock() { // want "reads the wall clock"
	t.events = append(t.events, uint64(time.Now().UnixNano()))
}

// Ring is trace-layer by type name too.
type Ring struct{ n int }

// Push is pure bookkeeping: fine.
func (r *Ring) Push(v uint64) { r.n++ }

// Device is an instrumented component (not trace-layer itself).
type Device struct {
	tr  *Tracer
	clk *Clock
}

// GoodEmit hoists the timestamp read before the emission — the idiom
// every instrumented call site uses.
func (d *Device) GoodEmit() {
	now := d.clk.Now()
	d.tr.Emit(now, 1)
}

// GoodEmitInline reads the virtual clock inside the argument list,
// which is pure and allowed.
func (d *Device) GoodEmitInline() {
	d.tr.Emit(d.clk.Now(), 1)
}

// BadEmitCharging does chargeable work inside the emission arguments:
// the traced run diverges from the untraced one.
func (d *Device) BadEmitCharging() {
	d.tr.Emit(d.step(), 1) // want "charges simulated cycles"
}

// step models a helper that advances the simulation.
func (d *Device) step() Cycles {
	d.clk.Charge(5)
	return d.clk.Now()
}

// BadEmitWallClock stamps an event with host time at the call site.
func (d *Device) BadEmitWallClock() {
	d.tr.Emit(0, uint64(time.Now().UnixNano())) // want "reads the wall clock"
}

// Profiler mirrors prof.Profiler: trace-layer by type name.
type Profiler struct {
	clk    *Clock
	counts map[uint32]uint64
	keys   []uint32
}

// Tick records a sample without touching the simulation: fine.
func (p *Profiler) Tick(now Cycles) { p.counts[uint32(now)]++ }

// BadTickCharge advances virtual time while sampling.
func (p *Profiler) BadTickCharge() { // want "charges simulated cycles"
	p.clk.Charge(1)
}

// BadEncode serializes by ranging over a map: two identical runs
// would emit differently ordered (non-byte-identical) profiles.
func (p *Profiler) BadEncode() []uint64 {
	var out []uint64
	for k, v := range p.counts { // want "ranges over a map"
		out = append(out, uint64(k)+v)
	}
	return out
}

// GoodEncode walks a sorted slice and uses the map only for lookup.
func (p *Profiler) GoodEncode() []uint64 {
	var out []uint64
	for _, k := range p.keys {
		out = append(out, p.counts[k])
	}
	return out
}

// Buf mirrors prof.Buf.
type Buf struct{ n int }

// BadDrainWallClock reads host time from the sample buffer.
func (b *Buf) BadDrainWallClock() int64 { // want "reads the wall clock"
	return time.Now().UnixNano()
}

// Metric mirrors stat.Metric: the resource-accounting layer rides the
// same zero-perturbation contract as the tracer and profiler.
type Metric struct {
	total uint64
	cells []uint64
}

// Registry mirrors stat.Registry.
type Registry struct {
	clk     *Clock
	mem     *Mem
	index   map[string]*Metric
	ordered []*Metric
	byID    []Counter
}

// GoodFold is the event-fold idiom: index the handle table by the
// object id the event carries and record.
func (r *Registry) GoodFold(now Cycles, kind uint8, id uint64) {
	if kind == 1 && id < uint64(len(r.byID)) {
		r.byID[id].Add(now, 1)
	}
}

// BadFold charges virtual time while folding an event.
func (r *Registry) BadFold(now Cycles, kind uint8) { // want "charges simulated cycles"
	if kind == 1 {
		r.clk.Charge(1)
	}
}

// Counter mirrors the stat.Counter handle.
type Counter struct{ m *Metric }

// Gauge mirrors the stat.Gauge handle.
type Gauge struct{ m *Metric }

// Add records into a counter without touching the simulation: fine.
func (c Counter) Add(now Cycles, n uint64) {
	if c.m == nil {
		return
	}
	c.m.total += n
}

// BadSet charges virtual time from inside a gauge update.
func (g Gauge) BadSet(clk *Clock, v uint64) { // want "charges simulated cycles"
	clk.Charge(1)
	g.m.total = v
}

// BadRegister mutates guest-visible state while registering a metric.
func (r *Registry) BadRegister(name string) *Metric { // want "mutates guest-visible platform state"
	r.mem.Write32(0, 1)
	m := &Metric{}
	r.index[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// BadSnapshot serializes by ranging over the lookup map instead of the
// registration-ordered slice.
func (r *Registry) BadSnapshot() []uint64 {
	var out []uint64
	for _, m := range r.index { // want "ranges over a map"
		out = append(out, m.total)
	}
	return out
}

// GoodSnapshot walks the ordered slice; the map is lookup-only.
func (r *Registry) GoodSnapshot() []uint64 {
	var out []uint64
	for _, m := range r.ordered {
		out = append(out, m.total)
	}
	return out
}

// BadSnapshotWallClock stamps the snapshot with host time.
func (r *Registry) BadSnapshotWallClock() int64 { // want "reads the wall clock"
	return time.Now().UnixNano()
}

// Server is an instrumented component holding metric handles.
type Server struct {
	reqs Counter
	clk  *Clock
}

// GoodCount is the accounting idiom: read virtual time, record.
func (s *Server) GoodCount() {
	s.reqs.Add(s.clk.Now(), 1)
}

// BadCountCharging does chargeable work inside the recording call's
// arguments.
func (s *Server) BadCountCharging(d *Device) {
	s.reqs.Add(d.step(), 1) // want "charges simulated cycles"
}

// DecodeCache mirrors x86.DecodeCache: the decoded-instruction cache is
// host-side acceleration state riding the same zero-perturbation
// contract as the trace layer — a cache fill or invalidation must be
// invisible to the simulation.
type DecodeCache struct {
	clk   *Clock
	mem   *Mem
	pages map[uint64]int
	order []uint64
}

// Lookup is pure host-side bookkeeping (maps as lookup index): fine.
func (c *DecodeCache) Lookup(page uint64) int { return c.pages[page] }

// BadFill charges simulated cycles for a host-side cache fill.
func (c *DecodeCache) BadFill(page uint64) { // want "charges simulated cycles"
	c.clk.Charge(1)
	c.pages[page] = 1
}

// BadSweep serializes cache contents by ranging over the page map.
func (c *DecodeCache) BadSweep() []uint64 {
	var out []uint64
	for p := range c.pages { // want "ranges over a map"
		out = append(out, p)
	}
	return out
}

// GoodSweep walks the insertion-ordered slice; the map is lookup-only.
func (c *DecodeCache) GoodSweep() []uint64 {
	var out []uint64
	for _, p := range c.order {
		out = append(out, uint64(c.pages[p]))
	}
	return out
}

// BadDecode mutates guest-visible state while filling a decode.
func (c *DecodeCache) BadDecode(page uint64) { // want "mutates guest-visible platform state"
	c.mem.Write32(0, 1)
	c.pages[page] = 1
}

// Recorder mirrors span.Recorder: the request-span tracer rides the
// same zero-perturbation contract — opening, transitioning, or closing
// a span must never charge, mutate guest state, or read the wall clock,
// and its encoding must never range over a map.
type Recorder struct {
	clk    *Clock
	mem    *Mem
	next   uint64
	active map[uint64]int
	order  []uint64
}

// Open assigns the next span ID and records the open: pure host-side
// bookkeeping, fine.
func (r *Recorder) Open(now Cycles) uint64 {
	r.next++
	r.active[r.next] = int(now)
	r.order = append(r.order, r.next)
	return r.next
}

// BadOpenCharge charges simulated cycles for recording a span open.
func (r *Recorder) BadOpenCharge(now Cycles) uint64 { // want "charges simulated cycles"
	r.clk.Charge(1)
	r.next++
	return r.next
}

// BadCloseMutate writes guest-visible state while closing a span.
func (r *Recorder) BadCloseMutate(id uint64) { // want "mutates guest-visible platform state"
	r.mem.Write32(0, uint32(id))
}

// BadOpenWallClock stamps a span with host time instead of virtual
// time.
func (r *Recorder) BadOpenWallClock() int64 { // want "reads the wall clock"
	return time.Now().UnixNano()
}

// BadEncodeSpans serializes by ranging over the active-span map: two
// identical runs would emit non-byte-identical span files.
func (r *Recorder) BadEncodeSpans() []uint64 {
	var out []uint64
	for id := range r.active { // want "ranges over a map"
		out = append(out, id)
	}
	return out
}

// GoodEncodeSpans walks the ID-ordered slice; the map is lookup-only.
func (r *Recorder) GoodEncodeSpans() []uint64 {
	var out []uint64
	for _, id := range r.order {
		out = append(out, uint64(r.active[id]))
	}
	return out
}

// Port is an instrumented IPC boundary (not trace-layer itself).
type Port struct {
	rec *Recorder
	clk *Clock
}

// GoodPropagate is the propagation idiom: read virtual time, record the
// span event, no charge from the recording itself.
func (p *Port) GoodPropagate() uint64 {
	return p.rec.Open(p.clk.Now())
}

// BadPropagateCharging does chargeable work inside the span call's
// arguments.
func (p *Port) BadPropagateCharging(d *Device) {
	p.rec.Open(d.step()) // want "charges simulated cycles"
}

// Kernel mirrors hypervisor.Kernel: its Record is the one probe every
// probe site calls, and its fold derives Stats from the event. Both are
// the record path, matched by receiver and method name.
type Kernel struct {
	clk   *Clock
	tr    *Tracer
	Stats struct{ Exits uint64 }
}

// Record folds the event and hands it to the tracer: fine.
func (k *Kernel) Record(kind uint8, a0 uint64) {
	k.fold(kind)
	k.tr.Emit(k.clk.Now(), a0)
}

// fold counts the event in Stats: fine.
func (k *Kernel) fold(kind uint8) {
	if kind == 1 {
		k.Stats.Exits++
	}
}

// BadProbe models a probe-site argument that charges: the traced run
// would diverge from the untraced one.
func (k *Kernel) BadProbe(d *Device) {
	k.Record(1, uint64(d.step())) // want "charges simulated cycles"
}

// VMM mirrors vmm.VMM.
type VMM struct {
	K   *Kernel
	clk *Clock
}

// record counts the VMM's own Stats and charges while doing so.
func (m *VMM) record(kind uint8, a0 uint64) { // want "charges simulated cycles"
	m.clk.Charge(1)
	m.K.Record(kind, a0)
}

// GoodProbe is the probe idiom: one call with pure arguments.
func (m *VMM) GoodProbe(eip uint64) {
	m.K.Record(2, eip)
}
