package analysis

import "nova/internal/cap"

// This file is the declared operation→rights contract of the hypercall
// layer: the machine-checked analogue of the paper's hypercall interface
// table (§6 lists, for every hypercall, which capability the caller must
// present and with which rights). The capflow analyzer cross-checks this
// table against the kernel sources in both directions — every hypercall
// must have a row, and every row must correspond to a validation the
// body actually performs — and then verifies that the rights each row
// requests are exactly the rights the downstream dataflow exercises.
//
// Editing rule: a change to a hypercall's validation (a new LookupObj,
// a different rights mask) and a change to this table must land
// together, or capflow fails the repo gate. That is the point — the
// table IS the reviewed interface specification, and drift between
// specification and implementation is a finding, not a merge.

// DeclaredLookup is one row of a hypercall's validation contract: which
// parameter (or selector) is validated, as what object type, with what
// rights.
type DeclaredLookup struct {
	// Param is the index of the validated hypercall parameter, counting
	// the calling PD as parameter 0. Param == -1 declares a
	// selector-based lookup (LookupTyped on a cap.Selector argument)
	// instead of an object-identity validation.
	Param int
	Type  cap.ObjType
	Need  cap.Rights
}

// HypercallRights maps each hypercall method of the kernel to its
// declared validations. An empty row declares that the hypercall
// validates no kernel-object argument (creation calls, which insert
// into the caller's own space, and revocation calls, which operate on
// the caller's own selectors). The capflow fixture's rows live in its
// test (capflowFixtureRights).
var HypercallRights = map[string][]DeclaredLookup{
	// --- object creation: the new object lands in the caller's own
	// capability space; only container arguments need validation.
	"CreatePD":        {},
	"CreatePortal":    {},
	"CreateSemaphore": {},
	"CreateEC":        {{Param: 2, Type: cap.ObjPD, Need: cap.RightCtrl}},
	"CreateVCPU":      {{Param: 2, Type: cap.ObjPD, Need: cap.RightCtrl}},
	"CreateSC":        {{Param: 2, Type: cap.ObjEC, Need: cap.RightCtrl}},

	// --- delegation and revocation: delegating into a destination
	// domain requires control over that domain; revocation works on the
	// caller's own selectors and needs no validation.
	"DelegateCap": {{Param: 2, Type: cap.ObjPD, Need: cap.RightCtrl}},
	"DelegateMem": {{Param: 2, Type: cap.ObjPD, Need: cap.RightCtrl}},
	"DelegateIO":  {{Param: 1, Type: cap.ObjPD, Need: cap.RightCtrl}},
	"RevokeCap":   {},
	"RevokeMem":   {},

	// --- interrupt routing and vCPU control.
	"AssignGSI":     {{Param: 2, Type: cap.ObjSemaphore, Need: cap.RightCtrl}},
	"AssignGSIToVM": {{Param: 2, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"Recall":        {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"InjectIRQ":     {{Param: 1, Type: cap.ObjEC, Need: cap.RightCtrl}},
	"DestroyPD":     {{Param: 1, Type: cap.ObjPD, Need: cap.RightCtrl}},

	// --- communication: signalling and portal traversal need call
	// rights, not control.
	"SemUp": {{Param: 1, Type: cap.ObjSemaphore, Need: cap.RightCall}},
	"Call":  {{Param: -1, Type: cap.ObjPortal, Need: cap.RightCall}},
}

// opKind classifies what a hypercall does with a looked-up object.
type opKind uint8

const (
	// opWrite: the hypercall (or a callee) stores into the object's own
	// state — mutating a semaphore counter, marking a PD dead, binding
	// an SC to an EC.
	opWrite opKind = iota
	// opInvoke: the hypercall calls through the object — traversing a
	// portal's handler, methods on the object itself.
	opInvoke
	// opStore: the hypercall retains a reference to the object in state
	// that outlives the call, under a validated caphold annotation.
	opStore
)

func (k opKind) String() string {
	switch k {
	case opWrite:
		return "a state write"
	case opInvoke:
		return "an invocation"
	case opStore:
		return "retaining the reference"
	}
	return "an operation"
}

// opRequiredRights is the operation→rights half of the contract: the
// rights a hypercall must have demanded at lookup time to be allowed to
// perform the operation downstream. Mutating or retaining a kernel
// object needs control; communication objects (portals, semaphores) are
// designed to be written/traversed by mere callers, so their write and
// invoke operations need only call rights — but retaining them still
// needs control.
func opRequiredRights(k opKind, t cap.ObjType) cap.Rights {
	switch k {
	case opWrite, opInvoke:
		if t == cap.ObjPortal || t == cap.ObjSemaphore {
			return cap.RightCall
		}
		return cap.RightCtrl
	default: // opStore
		return cap.RightCtrl
	}
}

// objTypeName names an object type in diagnostics. It goes through the
// numeric value rather than cap.ObjType.String so fixture-declared
// constants (same iota order, distinct named types) render identically.
func objTypeName(t int64) string {
	switch cap.ObjType(t) {
	case cap.ObjPD:
		return "PD"
	case cap.ObjEC:
		return "EC"
	case cap.ObjSC:
		return "SC"
	case cap.ObjPortal:
		return "Portal"
	case cap.ObjSemaphore:
		return "Semaphore"
	}
	return "object"
}
