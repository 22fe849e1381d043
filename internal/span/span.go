// Package span is the request-scoped causal-tracing layer of the
// simulation: a span ID is assigned at each request origin (a guest
// disk doorbell in the virtual AHCI model, a harvested NIC RX frame in
// the network server, a BIOS INT 13h disk service, a hypercall-
// initiated IPC) and propagated through the kernel portal path, the
// VMM's device models and the user-level servers until the request's
// effect reaches the guest again. Every boundary crossing records a
// segment-transition event, so a completed span decomposes exactly into
// guest / kernel-IPC / emulation / server / queueing segments whose
// durations telescope to the end-to-end virtual-time latency.
//
// The design contract is the same zero-perturbation rule the tracer,
// profiler and stat registry obey (DESIGN.md §5h): recording must never
// charge simulated cycles, mutate guest-visible state, or read the wall
// clock. All methods are nil-safe on the *Recorder and no-ops for span
// ID 0, so instrumented code needs no enablement checks and correlation
// fields can be stored unconditionally. Timestamps are virtual time
// from the per-CPU clocks; events land in the same fixed-capacity
// per-CPU rings the tracer uses (trace.Ring), with record-granular
// overwrite accounting. The nova-vet `tracepure` analyzer covers this
// package; the CI span-on/off step proves bit-identity end to end.
package span

import (
	"nova/internal/hw"
	"nova/internal/trace"
)

// ID identifies one request span. IDs are assigned densely from 1 in
// request-origin order (deterministic: the simulation is a single
// sequential schedule); 0 means "no span" and every recording method
// treats it as a no-op.
type ID uint64

// Class is the request class a span belongs to; percentiles are
// reported per class.
type Class uint8

// Request classes, one per instrumented origin.
const (
	// ClassDisk is a guest AHCI command forwarded to the disk server
	// (Figure 4's whole path, doorbell write to interrupt injection).
	ClassDisk Class = iota
	// ClassNetRX is one received NIC frame, from harvest in the network
	// server's interrupt EC to the client draining it.
	ClassNetRX
	// ClassIPC is a hypercall-initiated portal call that is not part of
	// an enclosing request (standalone IPC round-trips).
	ClassIPC
	// ClassBIOSDisk is a virtual-BIOS INT 13h disk read (boot path).
	ClassBIOSDisk
	// NumClasses sizes per-class tables.
	NumClasses
)

var classNames = [NumClasses]string{
	ClassDisk:     "disk",
	ClassNetRX:    "net-rx",
	ClassIPC:      "ipc",
	ClassBIOSDisk: "bios-disk",
}

func (c Class) String() string {
	if int(c) < int(NumClasses) {
		return classNames[c]
	}
	return "class?"
}

// Seg is one critical-path segment of a request. A span is in exactly
// one segment at any time; transitions are recorded as events and the
// per-segment durations telescope to close minus open.
type Seg uint8

// Critical-path segments.
const (
	// SegGuest: the request's completion interrupt has been raised at
	// the virtual PIC and the guest is executing until the VMM can arm
	// the injection (delivery-into-guest wait).
	SegGuest Seg = iota
	// SegIPC: kernel portal traversal — call path, reply path, the
	// hypercall entry/exit around them.
	SegIPC
	// SegEmul: VMM work — instruction emulation, device-model state
	// machines, completion processing, BIOS services.
	SegEmul
	// SegServer: user-level server work — request validation and host
	// controller programming, interrupt-EC completion harvesting.
	SegServer
	// SegQueue: queueing — the request is in flight at the host device,
	// or a completion waits for its doorbell EC to be dispatched.
	SegQueue
	// NumSegs sizes per-segment tables.
	NumSegs
)

var segNames = [NumSegs]string{
	SegGuest:  "guest",
	SegIPC:    "kernel-ipc",
	SegEmul:   "emulation",
	SegServer: "server",
	SegQueue:  "queueing",
}

func (s Seg) String() string {
	if int(s) < int(NumSegs) {
		return segNames[s]
	}
	return "seg?"
}

// Kind classifies a span event. Span events ride in trace.Ring records;
// the payload mapping is fixed: A0 is always the span ID, A1/A2 are the
// kind-specific arguments below, A3 is unused.
type Kind uint8

// Span event kinds.
const (
	// KindNone is never emitted; it marks an empty record.
	KindNone Kind = iota
	// KindOpen: a request origin assigned a new span ID.
	// A1=class, A2=origin detail (command slot, IRQ line, portal uid…).
	KindOpen
	// KindSeg: the span entered a new critical-path segment. A1=segment.
	KindSeg
	// KindAnnotate: a key/value annotation. A1=key, A2=value.
	KindAnnotate
	// KindClose: the request completed. A1=status.
	KindClose
	// NumKinds sizes per-kind tables.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindNone:     "none",
	KindOpen:     "open",
	KindSeg:      "seg",
	KindAnnotate: "annotate",
	KindClose:    "close",
}

func (k Kind) String() string {
	if int(k) < int(NumKinds) {
		return kindNames[k]
	}
	return "kind?"
}

// Close statuses (the A1 payload of KindClose).
const (
	// StatusOK: the request completed and its effect reached the
	// consumer (injection armed, packet drained, reply delivered).
	StatusOK uint64 = iota
	// StatusError: the request failed (bad command, server refusal).
	StatusError
	// StatusNoIRQ: the request completed but the guest had the
	// completion interrupt masked; the span closes at device-model
	// completion instead of injection.
	StatusNoIRQ
)

// Annotation keys (the A1 payload of KindAnnotate).
const (
	AnnotLBA     uint64 = 1
	AnnotSectors uint64 = 2
	AnnotBytes   uint64 = 3
	AnnotVector  uint64 = 4
)

// active is one entry of a CPU's active-span stack: the span currently
// being worked on by the code executing on that CPU, plus the segment
// it was in when it became current (so nested portal calls can restore
// the caller's segment on return).
type active struct {
	id  ID
	seg Seg
}

// Recorder assigns span IDs and records span events into per-CPU
// rings. All methods are nil-safe: a nil *Recorder means span tracing
// is off and every call is a cheap no-op, exactly like trace.Tracer.
type Recorder struct {
	rings []*trace.Ring
	cur   [][]active // per-CPU active-span stack
	next  uint64     // last assigned span ID

	// Opened/Closed count spans over the whole run (rings may wrap).
	Opened uint64
	Closed uint64
}

// New creates a recorder with one ring of the given capacity per CPU.
func New(cpus, capacity int) *Recorder {
	r := &Recorder{}
	for i := 0; i < cpus; i++ {
		r.rings = append(r.rings, trace.NewRing(i, capacity))
		r.cur = append(r.cur, nil)
	}
	return r
}

// Open assigns the next span ID and records the open plus the initial
// segment (a two-record emission). It returns 0 on a nil recorder so
// callers can store the result unconditionally.
func (r *Recorder) Open(cpu int, now hw.Cycles, class Class, seg Seg, detail uint64) ID {
	if r == nil || cpu < 0 || cpu >= len(r.rings) {
		return 0
	}
	r.next++
	id := ID(r.next)
	r.Opened++
	ring := r.rings[cpu]
	ring.Push(now, trace.Kind(KindOpen), uint64(id), uint64(class), detail, 0)
	ring.Push(now, trace.Kind(KindSeg), uint64(id), uint64(seg), 0, 0)
	return id
}

// Transition records that the span entered seg at now. If the span is
// the CPU's current span, its stack entry tracks the new segment.
func (r *Recorder) Transition(cpu int, now hw.Cycles, id ID, seg Seg) {
	if r == nil || id == 0 || cpu < 0 || cpu >= len(r.rings) {
		return
	}
	r.rings[cpu].Push(now, trace.Kind(KindSeg), uint64(id), uint64(seg), 0, 0)
	if stack := r.cur[cpu]; len(stack) > 0 && stack[len(stack)-1].id == id {
		stack[len(stack)-1].seg = seg
	}
}

// Annotate attaches a key/value pair to the span.
func (r *Recorder) Annotate(cpu int, now hw.Cycles, id ID, key, val uint64) {
	if r == nil || id == 0 || cpu < 0 || cpu >= len(r.rings) {
		return
	}
	r.rings[cpu].Push(now, trace.Kind(KindAnnotate), uint64(id), key, val, 0)
}

// Close records the span's completion.
func (r *Recorder) Close(cpu int, now hw.Cycles, id ID, status uint64) {
	if r == nil || id == 0 || cpu < 0 || cpu >= len(r.rings) {
		return
	}
	r.Closed++
	r.rings[cpu].Push(now, trace.Kind(KindClose), uint64(id), status, 0, 0)
}

// Begin pushes the span onto the CPU's active stack: subsequent
// portal-path code on this CPU attributes its segments to it via
// Current. seg is the segment the span is in while current.
func (r *Recorder) Begin(cpu int, id ID, seg Seg) {
	if r == nil || id == 0 || cpu < 0 || cpu >= len(r.cur) {
		return
	}
	r.cur[cpu] = append(r.cur[cpu], active{id: id, seg: seg})
}

// End pops the CPU's active stack.
func (r *Recorder) End(cpu int) {
	if r == nil || cpu < 0 || cpu >= len(r.cur) {
		return
	}
	if n := len(r.cur[cpu]); n > 0 {
		r.cur[cpu] = r.cur[cpu][:n-1]
	}
}

// Current returns the CPU's current span and the segment it is in, or
// (0, 0) when no span is active (or the recorder is nil).
func (r *Recorder) Current(cpu int) (ID, Seg) {
	if r == nil || cpu < 0 || cpu >= len(r.cur) {
		return 0, 0
	}
	if stack := r.cur[cpu]; len(stack) > 0 {
		top := stack[len(stack)-1]
		return top.id, top.seg
	}
	return 0, 0
}
