package hypervisor

import (
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/x86"
)

// PD is a protection domain (§5): the unit of spatial isolation. It
// abstracts from the difference between a user application and a
// virtual machine — both are just resource containers with three
// spaces.
type PD struct {
	Name string
	// ID is a small dense identity used by trace events.
	ID int

	Caps *cap.Space
	Mem  *cap.MemSpace // HVA→HPA for applications, GPA→HPA for VMs
	IO   *cap.IOSpace

	// IsVM marks domains whose ECs are virtual CPUs. VMs cannot perform
	// hypercalls (§4.2: "VMs cannot perform hypercalls, a successful
	// attack [on the hypervisor] is unlikely").
	IsVM bool

	// Tag is the TLB tag of this domain's host address space.
	Tag hw.TLBTag

	// HostLargePages marks that this domain's memory was delegated in
	// large-page chunks, letting the MMU install large TLB entries
	// (Figure 5's small-vs-large host page comparison).
	HostLargePages bool

	dead bool
}

// ObjectType implements cap.Object.
func (p *PD) ObjectType() cap.ObjType { return cap.ObjPD }

func (p *PD) String() string { return fmt.Sprintf("pd:%s", p.Name) }

// ECKind distinguishes the two flavours of execution context.
type ECKind int

// Execution context kinds: ordinary host threads and virtual CPUs (§5:
// "execution contexts abstract from the differences between threads and
// virtual CPUs").
const (
	ECThread ECKind = iota
	ECVCPU
)

// EC is an execution context.
type EC struct {
	Name string
	// ID is a small dense identity used by trace events.
	ID   int
	PD   *PD
	CPU  int // physical CPU this EC is pinned to
	Kind ECKind

	UTCB *UTCB

	// SC is the scheduling context bound to this EC (nil for pure
	// portal handlers, which run on donated time).
	SC *SC

	// VCPU state, for ECVCPU.
	VCPU *VCPU

	// Run is the body of a thread EC. It is invoked when the EC is
	// dispatched after becoming runnable and runs until it blocks
	// (returns). Handler ECs bound to portals instead receive messages
	// through their portal's Handle function.
	Run func()

	// WaitSem, when set, is the semaphore this thread blocks on between
	// runs (the classic driver loop: down, handle, repeat).
	WaitSem *Semaphore

	// Runnable threads wait in the runqueue; blocked ones sit on a
	// semaphore or wait for their next wakeup.
	runnable  bool
	waitingOn *Semaphore

	dead bool
}

// ObjectType implements cap.Object.
func (e *EC) ObjectType() cap.ObjType { return cap.ObjEC }

func (e *EC) String() string { return fmt.Sprintf("ec:%s", e.Name) }

// SC is a scheduling context: a priority coupled with a time quantum
// (§5.1). SCs are donated across portal calls so servers run on their
// client's time and priority.
type SC struct {
	Name     string
	Priority int       // higher value = more important
	Quantum  hw.Cycles // full timeslice
	Left     hw.Cycles // remaining slice
	EC       *EC       // execution context attached to this SC

	queued bool
	// enqueuedAt is the virtual time the SC last entered its runqueue,
	// for the scheduler-dispatch-latency trace metric.
	enqueuedAt hw.Cycles
}

// ObjectType implements cap.Object.
func (s *SC) ObjectType() cap.ObjType { return cap.ObjSC }

func (s *SC) String() string { return fmt.Sprintf("sc:%s(p%d)", s.Name, s.Priority) }

// Portal is a dedicated entry point into a protection domain (§5). For
// VM-exit portals, MTD selects the state transferred and ID is the
// event type; for service portals ID is a protocol tag.
type Portal struct {
	Name string
	PD   *PD // domain the portal leads into
	ID   uint64
	// UID is a kernel-wide unique identity used by trace events (ID is
	// a caller-chosen protocol tag and not unique).
	UID uint64
	MTD MTD

	// Handle is the handler EC's code: it receives the message UTCB,
	// mutates it in place as the reply, and returns. It runs on the
	// caller's donated scheduling context. A nil return ends the
	// communication normally; returning an error kills the caller
	// (used to model handler crashes in the attack scenarios).
	Handle func(msg *UTCB) error

	// AcceptBase/AcceptPages declare the receive window for memory
	// delegations riding on messages (§6: "the receiver declares a
	// region where it is willing to accept resource delegations").
	// A zero-sized window refuses all delegations.
	AcceptBase  uint32
	AcceptPages int

	Calls uint64

	dead bool
}

// ObjectType implements cap.Object.
func (p *Portal) ObjectType() cap.ObjType { return cap.ObjPortal }

func (p *Portal) String() string { return fmt.Sprintf("portal:%s", p.Name) }

// Semaphore synchronizes ECs and delivers hardware interrupts to
// user-level drivers (§5).
type Semaphore struct {
	Name string
	// ID is a small dense identity used by trace events.
	ID      int
	Counter int64
	waiters []*EC

	// Owner is the domain the semaphore was created in; interrupt
	// routes (AssignGSI) bound to it are torn down when that domain is
	// destroyed.
	Owner *PD

	Ups   uint64
	Downs uint64
}

// ObjectType implements cap.Object.
func (s *Semaphore) ObjectType() cap.ObjType { return cap.ObjSemaphore }

func (s *Semaphore) String() string { return fmt.Sprintf("sm:%s", s.Name) }

// VCPU is the guest-mode execution state of an ECVCPU: architectural
// registers, the interpreter binding, injection state and exit
// statistics.
type VCPU struct {
	State  x86.CPUState
	Interp *x86.Interp

	// Index is the virtual CPU number within its VM; each vCPU has its
	// own set of VM-exit portals (§7.5).
	Index int

	// PendingVector is the interrupt the VMM wants injected; delivery
	// waits until the guest is interruptible, possibly via an
	// interrupt-window exit.
	PendingVector uint8
	PendingValid  bool
	WindowWanted  bool

	RecallPending bool

	// NoExitDelivery marks the paper's §8.1 "Direct" measurement
	// configuration: all intercepts disabled, host devices and
	// interrupts assigned to the guest, so the only remaining overhead
	// is the hardware nested-paging walk. Host interrupts are delivered
	// straight through the guest's IDT without a VM exit.
	NoExitDelivery bool

	// Exits counts VM exits by reason; Table 2 is printed from these.
	Exits [x86.NumExitReasons]uint64
	// InjectedIRQs counts virtual interrupt injections (Table 2's
	// "Injected vIRQ" row).
	InjectedIRQs uint64

	// vTLB state (only used in shadow-paging mode).
	Shadow *ShadowPT

	// profRead is the host-side pure memory reader the profiler's
	// stack walker uses for this vCPU (set when a profiler attaches;
	// never touches guest-visible state).
	profRead prof.MemReader
	// exitRIP and exitDef32 locate the instruction that took the VM
	// exit in flight (CS.Base+EIP and the D bit). The profiler takes
	// them when the exit is recorded and attributes the exit window to
	// them at the resume.
	exitRIP   uint32
	exitDef32 bool
}

// vcpuNamed returns ec's vCPU if ec is the EC with the given id.
func (ec *EC) vcpuNamed(id uint64) *VCPU {
	if ec == nil || uint64(ec.ID) != id {
		return nil
	}
	return ec.VCPU
}

// TotalExits sums all exit reasons.
func (v *VCPU) TotalExits() uint64 {
	var t uint64
	for _, n := range v.Exits {
		t += n
	}
	return t
}
