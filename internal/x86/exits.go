package x86

import "fmt"

// ExitReason classifies VM exits, mirroring the event types for which the
// NOVA VMM creates dedicated portals (§5.2, §7).
type ExitReason int

// VM exit reasons.
const (
	ExitNone ExitReason = iota
	ExitHLT
	ExitCPUID
	ExitIO           // port I/O intercepted
	ExitEPTViolation // access to unmapped/MMIO guest-physical memory
	ExitCRAccess     // MOV to/from control register
	ExitINVLPG
	ExitMSR
	ExitException       // guest exception intercepted (vTLB #PF path)
	ExitInterruptWindow // guest became interruptible with injection pending
	ExitExternalInterrupt
	ExitTripleFault
	ExitRecall // forced by the recall hypercall (§7.5)
	ExitRDTSC
)

var exitNames = map[ExitReason]string{
	ExitNone:              "none",
	ExitHLT:               "hlt",
	ExitCPUID:             "cpuid",
	ExitIO:                "io",
	ExitEPTViolation:      "ept-violation",
	ExitCRAccess:          "cr-access",
	ExitINVLPG:            "invlpg",
	ExitMSR:               "msr",
	ExitException:         "exception",
	ExitInterruptWindow:   "interrupt-window",
	ExitExternalInterrupt: "external-interrupt",
	ExitTripleFault:       "triple-fault",
	ExitRecall:            "recall",
	ExitRDTSC:             "rdtsc",
}

func (r ExitReason) String() string {
	if s, ok := exitNames[r]; ok {
		return s
	}
	return fmt.Sprintf("ExitReason(%d)", int(r))
}

// NumExitReasons is the size of per-reason arrays (portals, counters).
const NumExitReasons = int(ExitRDTSC) + 1

// VMExit carries the exit reason and its qualification, the information
// hardware stores in the VMCS exit fields. The microhypervisor forwards
// a selected subset of this plus guest state to the VMM through the
// event's portal.
type VMExit struct {
	Reason  ExitReason
	InstLen int // length of the exiting instruction (0 if async)

	// ExitIO qualification.
	Port   uint16
	Size   int
	In     bool
	OutVal uint32 // value the guest was writing (OUT only)

	// ExitEPTViolation qualification.
	GPA   uint64
	Write bool
	Fetch bool

	// ExitCRAccess qualification.
	CR      int
	CRWrite bool
	CRGPR   int    // GPR operand index
	CRVal   uint32 // value being written (CRWrite only)

	// ExitException qualification.
	Vec     int
	ErrCode uint32
	HasCode bool
	CR2     uint32

	// ExitINVLPG qualification.
	Linear uint32

	// ExitMSR qualification.
	MSR      uint32
	MSRWrite bool
	MSRVal   uint64
}

func (e *VMExit) Error() string {
	switch e.Reason {
	case ExitIO:
		dir := "out"
		if e.In {
			dir = "in"
		}
		return fmt.Sprintf("x86: vmexit io %s port=%#x size=%d", dir, e.Port, e.Size)
	case ExitEPTViolation:
		return fmt.Sprintf("x86: vmexit ept-violation gpa=%#x write=%v fetch=%v", e.GPA, e.Write, e.Fetch)
	default:
		return fmt.Sprintf("x86: vmexit %v", e.Reason)
	}
}

// AccessKind distinguishes instruction fetches from data accesses.
type AccessKind int

// Memory access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

// Env is the interpreter's connection to the outside world: memory
// translation and access, port I/O, and TLB maintenance notifications.
// The implementation determines the execution mode: the hypervisor's
// one front end translates natively through the guest's own page
// tables (the paper's bare-metal baseline), with the GPA→HPA nested
// walk (EPT/NPT), or through the vTLB's shadow page table (§5.3); the
// VMM's instruction emulator walks the guest's tables in software.
//
// A memory access never crosses a 4 KiB page: the interpreter splits a
// crossing access into byte accesses before it reaches the Env.
type Env interface {
	// MemRead performs a data or fetch access of size 1, 2 or 4 bytes
	// within one page. It returns *Exception for guest-visible faults
	// and *VMExit when the access leaves guest mode.
	MemRead(st *CPUState, va uint32, size int, kind AccessKind) (uint32, error)
	// MemWrite performs a data write within one page.
	MemWrite(st *CPUState, va uint32, size int, val uint32) error
	// In reads from an I/O port (only called when I/O is not
	// intercepted).
	In(port uint16, size int) (uint32, error)
	// Out writes to an I/O port.
	Out(port uint16, size int, val uint32) error
	// InvalidateTLB is called for non-intercepted CR writes and INVLPG
	// so the Env can flush cached translations. all=false flushes only
	// va's page.
	InvalidateTLB(st *CPUState, all bool, va uint32)
}

// Intercepts selects which sensitive events leave guest mode, mirroring
// the execution controls of the VMCS. A native (bare-metal) run uses the
// zero value: nothing traps.
type Intercepts struct {
	HLT    bool
	IO     bool
	CR     bool
	INVLPG bool
	CPUID  bool
	MSR    bool
	RDTSC  bool
}

// FullVirt returns the intercept set of a fully virtualized guest under
// hardware nested paging: everything sensitive traps except what the MMU
// handles in hardware.
func FullVirt() Intercepts {
	return Intercepts{HLT: true, IO: true, CPUID: true, MSR: true}
}

// VTLBVirt returns the intercept set for shadow paging: additionally CR
// writes and INVLPG must trap so the microhypervisor can maintain the
// shadow page table (§5.3).
func VTLBVirt() Intercepts {
	return Intercepts{HLT: true, IO: true, CPUID: true, MSR: true, CR: true, INVLPG: true}
}

// ExitReasonNames returns the reason-name table indexed by reason, for
// self-describing trace metadata.
func ExitReasonNames() []string {
	names := make([]string, NumExitReasons)
	for i := range names {
		names[i] = ExitReason(i).String()
	}
	return names
}
