// Package trace is the event layer of the simulation's observability:
// the event kinds and their payload layout that Kernel.Record takes,
// the deterministic per-CPU event rings of the tracer, their file
// codec, and the attribution pass that rebuilds the paper's §8 cost
// breakdowns from a ring's records. It also holds the log2 histogram
// the stat registry aggregates latencies with. The tracer itself keeps
// no aggregate: Kernel.Stats and the stat registry are the whole-run
// folds of the same events.
//
// The design contract is zero perturbation: emitting an event must
// never charge simulated cycles, mutate guest-visible state, or read
// the wall clock. Timestamps are virtual time (hw.Cycles) taken from
// the per-CPU clocks that the simulation already maintains, so a run
// with tracing enabled produces bit-identical cycle totals to a run
// without, and two traced runs of the same guest produce byte-identical
// event streams. The nova-vet `tracepure` analyzer enforces this
// statically; the CI trace-on/off step enforces it end to end.
//
// Events land in fixed-capacity per-CPU ring buffers carrying per-CPU
// sequence numbers; when a ring wraps, the oldest events are dropped
// and counted in Overwritten — emission itself never blocks, allocates
// per-event, or fails.
package trace

import "nova/internal/hw"

// Kind classifies a trace event. The A0..A3 payload layout is fixed per
// kind and documented on each constant; renderers and the attribution
// pass depend on it.
type Kind uint8

// Event kinds, one per instrumented boundary of the stack.
const (
	// KindNone is never emitted; it marks an empty record.
	KindNone Kind = iota

	// Kernel layer.

	// KindVMExit: a VM exit entered the microhypervisor.
	// A0=exit reason, A1=guest EIP, A2=EC id, A3=host vector (external
	// interrupt exits only, else 0).
	KindVMExit
	// KindVMResume: the VM exit finished and the guest resumes.
	// A0=exit reason, A1=cycles spent handling the exit, A2=EC id.
	KindVMResume
	// KindHypercall: a user component entered the hypercall layer.
	// A0=caller PD id.
	KindHypercall
	// KindIPCCall: a portal traversal began (SC donation, Figure 3).
	// A0=portal uid, A1=payload words, A2=1 if cross-address-space,
	// A3=caller PD id.
	KindIPCCall
	// KindIPCReply: the portal's reply capability was invoked.
	// A0=portal uid, A1=call-to-reply cycles, A2=1 if cross-AS.
	KindIPCReply
	// KindSchedDispatch: the scheduler dispatched an SC.
	// A0=EC id, A1=priority, A2=cycles the SC waited in the runqueue,
	// A3=ready-queue depth left behind.
	KindSchedDispatch
	// KindSemUp: semaphore up. A0=semaphore id, A1=1 if a waiter woke.
	KindSemUp
	// KindSemDown: semaphore down. A0=semaphore id, A1=1 if acquired
	// immediately (0 = caller blocked).
	KindSemDown
	// KindRecall: the recall hypercall forced a vCPU out of guest mode
	// (§7.5). A0=target EC id.
	KindRecall
	// KindInject: a virtual interrupt was delivered into the guest.
	// A0=vector, A1=EC id, A2=1 if delivered directly from the platform
	// PIC without an exit (NoExitDelivery), 0 if injected by the kernel.
	KindInject
	// KindHostIRQ: a host interrupt was acknowledged and routed.
	// A0=host vector, A1=IRQ line (two's complement -1 if spurious),
	// A2=preempted EC id (^0 if the kernel was running).
	KindHostIRQ
	// KindVTLBFill: a vTLB miss filled the shadow page table (§5.3).
	// A0=guest-virtual address, A1=fill cycles, A2=EC id.
	KindVTLBFill
	// KindVTLBFlush: the shadow page table was flushed or pruned.
	// A0=cause (CR number, or CauseINVLPG), A1=EC id, A2=linear
	// address (INVLPG only). Only CR causes count as flushes; an
	// INVLPG prunes one page.
	KindVTLBFlush

	// VMM layer.

	// KindPIO: the device-model dispatcher handled an intercepted
	// IN/OUT. A0=port, A1=1 if IN, A2=value, A3=size.
	KindPIO
	// KindMMIO: an emulated access hit a virtual device window.
	// A0=guest-physical address, A1=1 if read, A2=value, A3=size.
	KindMMIO
	// KindEmulate: the instruction emulator ran one guest instruction
	// (§7.1). A0=guest EIP. Recorded once the emulation is charged.
	KindEmulate
	// KindBIOSCall: the virtual BIOS served an INT service (§7.4).
	// A0=interrupt vector, A1=AH function code.
	KindBIOSCall
	// KindDiskRequest: the vAHCI model forwarded a guest command to the
	// disk server (Figure 4, step 2). A0=op, A1=LBA, A2=sector count,
	// A3=command slot.
	KindDiskRequest
	// KindDiskComplete: a completion record reached the vAHCI model
	// (Figure 4, step 7). A0=command slot, A1=1 if OK.
	KindDiskComplete

	// Server layer.

	// KindDiskIssue: the disk server programmed the host controller
	// (Figure 4, step 4). A0=op, A1=LBA, A2=sector count, A3=host slot
	// in the low 8 bits and the client's DMA buffer bytes above them.
	KindDiskIssue
	// KindDiskDone: the disk server's interrupt EC retired a slot and
	// wrote the completion record (Figure 4, step 6). A0=client cookie,
	// A1=1 if OK, A2=client id.
	KindDiskDone
	// KindNetRX: the network server harvested one received packet.
	// A0=length in bytes, A1=number of clients it was delivered to.
	KindNetRX

	// Aggregate-only kinds: facts with no place on the timeline. The
	// stat registry folds them, but no ring stores them.

	// KindSchedRan: a dispatched vCPU gave its CPU back to the
	// scheduler. A0=EC id, A1=cycles it consumed.
	KindSchedRan
	// KindHalt: the VMM handled a guest HLT exit. A0=vCPU index.
	KindHalt
	// KindArmInject: the VMM queued a virtual interrupt for a vCPU.
	// A0=vector, A1=1 if sent as an inter-processor interrupt (0 = on
	// an exit reply).
	KindArmInject
	// KindDiskIRQ: the disk server's interrupt EC ran.
	KindDiskIRQ
	// KindNetIRQ: the network server's interrupt EC ran.
	KindNetIRQ
)

// CauseINVLPG is the KindVTLBFlush cause of a single-page INVLPG prune.
const CauseINVLPG = 0xff

// NumKinds counts the ring kinds, the ones a ring stores;
// NumAllKinds adds the aggregate-only kinds.
const (
	NumKinds    = int(KindNetRX) + 1
	NumAllKinds = int(KindNetIRQ) + 1
)

var kindNames = [NumAllKinds]string{
	KindNone:          "none",
	KindVMExit:        "vm-exit",
	KindVMResume:      "vm-resume",
	KindHypercall:     "hypercall",
	KindIPCCall:       "ipc-call",
	KindIPCReply:      "ipc-reply",
	KindSchedDispatch: "sched-dispatch",
	KindSemUp:         "sem-up",
	KindSemDown:       "sem-down",
	KindRecall:        "recall",
	KindInject:        "inject",
	KindHostIRQ:       "host-irq",
	KindVTLBFill:      "vtlb-fill",
	KindVTLBFlush:     "vtlb-flush",
	KindPIO:           "pio",
	KindMMIO:          "mmio",
	KindEmulate:       "emulate",
	KindBIOSCall:      "bios-call",
	KindDiskRequest:   "disk-request",
	KindDiskComplete:  "disk-complete",
	KindDiskIssue:     "disk-issue",
	KindDiskDone:      "disk-done",
	KindNetRX:         "net-rx",
	KindSchedRan:      "sched-ran",
	KindHalt:          "halt",
	KindArmInject:     "arm-inject",
	KindDiskIRQ:       "disk-irq",
	KindNetIRQ:        "net-irq",
}

func (k Kind) String() string {
	if int(k) < NumAllKinds {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one trace record. Seq is the per-CPU sequence number (gaps
// never occur; a wrapped ring drops from the front, so the first
// surviving Seq equals Overwritten). Time is virtual time on the
// emitting CPU's clock.
type Event struct {
	Seq  uint64
	Time hw.Cycles
	CPU  uint8
	Kind Kind
	A0   uint64
	A1   uint64
	A2   uint64
	A3   uint64
}

// Ring is one CPU's fixed-capacity event buffer. When full, the oldest
// event is overwritten and counted; emission never fails or allocates.
type Ring struct {
	cpu  uint8
	buf  []Event
	w    int    // next write index
	n    int    // live events
	seq  uint64 // sequence number of the next event
	over uint64 // records dropped to make room (not emission calls)
}

// NewRing creates a ring for the given CPU with the given capacity
// (minimum 1).
func NewRing(cpu, capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cpu: uint8(cpu), buf: make([]Event, capacity)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of live events.
func (r *Ring) Len() int { return r.n }

// Overwritten returns how many RECORDS were dropped to make room. The
// counter is bumped once per overwritten record inside Push, not once
// per emission call, so multi-record emissions (a span open emits an
// open record plus its initial segment record) account every dropped
// record individually. The invariant Overwritten() == seq - Len() is
// checked by the ring regression test.
func (r *Ring) Overwritten() uint64 { return r.over }

// Push appends one record, overwriting the oldest if full. The span
// recorder in internal/span reuses rings with its own kind space and
// calls it once per record, so overwrite accounting stays
// record-granular.
func (r *Ring) Push(now hw.Cycles, k Kind, a0, a1, a2, a3 uint64) {
	if r.n == len(r.buf) {
		r.over++
	}
	r.buf[r.w] = Event{Seq: r.seq, Time: now, CPU: r.cpu, Kind: k, A0: a0, A1: a1, A2: a2, A3: a3}
	r.seq++
	r.w++
	if r.w == len(r.buf) {
		r.w = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Events returns the live events oldest-first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	start := r.w - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Tracer is the per-platform event sink: the cost constants and one
// ring per CPU. All methods are nil-safe so instrumented code needs no
// enablement checks: a nil *Tracer means tracing is off and every call
// is a two-instruction no-op.
type Tracer struct {
	Costs Costs
	rings []*Ring
}

// New creates a tracer with one ring of the given capacity per CPU.
func New(costs Costs, cpus, capacity int) *Tracer {
	t := &Tracer{Costs: costs}
	for i := 0; i < cpus; i++ {
		t.rings = append(t.rings, NewRing(i, capacity))
	}
	return t
}

// Emit records one event of a ring kind on cpu's ring at virtual time
// now; aggregate-only kinds have no place on a ring and are dropped.
func (t *Tracer) Emit(cpu int, now hw.Cycles, k Kind, a0, a1, a2, a3 uint64) {
	if t == nil || cpu < 0 || cpu >= len(t.rings) || int(k) >= NumKinds {
		return
	}
	t.rings[cpu].Push(now, k, a0, a1, a2, a3)
}

// mergeEvents merges per-CPU, already-ordered event slices into the
// (time, CPU, seq) total order, a deterministic total order because
// each CPU's ring is already time- and sequence-ordered.
func mergeEvents(per [][]Event) []Event {
	total := 0
	for _, p := range per {
		total += len(p)
	}
	out := make([]Event, 0, total)
	idx := make([]int, len(per))
	for len(out) < total {
		best := -1
		for c := range per {
			if idx[c] >= len(per[c]) {
				continue
			}
			if best < 0 {
				best = c
				continue
			}
			a, b := per[c][idx[c]], per[best][idx[best]]
			if a.Time < b.Time || (a.Time == b.Time && c < best) {
				best = c
			}
		}
		out = append(out, per[best][idx[best]])
		idx[best]++
	}
	return out
}
