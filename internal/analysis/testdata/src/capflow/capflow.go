// Package capflow exercises the capflow analyzer: a miniature kernel
// with the same capability vocabulary as nova/internal/cap (same
// constant values, distinct types) and hypercall-shaped methods that
// violate — or honour — each of the three rules. The Fix* rows of
// HypercallRights in caprights.go declare these methods' contracts.
package capflow

import "errors"

type Rights uint8

const (
	RightRead Rights = 1 << iota
	RightWrite
	RightExec
	RightCtrl
	RightCall
)

type ObjType uint8

const (
	ObjNull ObjType = iota
	ObjPD
	ObjEC
	ObjSC
	ObjPortal
	ObjSemaphore
)

type Object any

type Capability struct {
	Obj    Object
	Type   ObjType
	Rights Rights
}

var errLookup = errors.New("no capability")

type Space struct {
	slots map[uint32]Capability
}

func (s *Space) Lookup(sel uint32) (Capability, error) {
	if c, ok := s.slots[sel]; ok {
		return c, nil
	}
	return Capability{}, errLookup
}

func (s *Space) LookupTyped(sel uint32, t ObjType, need Rights) (Capability, error) {
	c, err := s.Lookup(sel)
	if err != nil || c.Type != t || c.Rights&need != need {
		return Capability{}, errLookup
	}
	return c, nil
}

func (s *Space) LookupObj(obj Object, t ObjType, need Rights) (Capability, error) {
	for _, c := range s.slots {
		if c.Obj == obj && c.Type == t && c.Rights&need == need {
			return c, nil
		}
	}
	return Capability{}, errLookup
}

func (s *Space) Insert(sel uint32, obj Object, t ObjType, r Rights) error {
	if s.slots == nil {
		s.slots = make(map[uint32]Capability)
	}
	s.slots[sel] = Capability{Obj: obj, Type: t, Rights: r}
	return nil
}

type PD struct {
	Name string
	Caps *Space
	dead bool
}

type EC struct {
	PD   *PD
	SC   *SC
	prio int
}

type SC struct {
	EC *EC
}

type Semaphore struct {
	Counter int64
	waiters []*EC
}

type Portal struct {
	Name   string
	Handle func() error
}

type Kernel struct {
	sems   []*Semaphore
	stash  *EC
	parked []*EC
}

// FixSignalBadRights demands read rights but then mutates the
// semaphore: rule 1 (sufficiency) fires.
func (k *Kernel) FixSignalBadRights(caller *PD, sm *Semaphore) error {
	if _, err := caller.Caps.LookupObj(sm, ObjSemaphore, RightRead); err != nil { // want "requires"
		return err
	}
	sm.Counter++
	return nil
}

// FixSignalOK is the corrected twin: call rights cover the signal.
func (k *Kernel) FixSignalOK(caller *PD, sm *Semaphore) error {
	if _, err := caller.Caps.LookupObj(sm, ObjSemaphore, RightCall); err != nil {
		return err
	}
	sm.Counter++
	return nil
}

// FixOverRequest demands control AND call rights but only performs a
// state write: rule 2 (least privilege) flags the unexercised call bit.
func (k *Kernel) FixOverRequest(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl|RightCall); err != nil { // want "never exercises"
		return err
	}
	ec.prio = 1
	return nil
}

// FixRetain stashes the looked-up semaphore in kernel state without a
// caphold annotation: rule 3 (lifetime) fires.
func (k *Kernel) FixRetain(caller *PD, sm *Semaphore) error {
	if _, err := caller.Caps.LookupObj(sm, ObjSemaphore, RightCtrl); err != nil { // want "without a caphold annotation"
		return err
	}
	k.sems = append(k.sems, sm)
	return nil
}

// FixHold is the audited twin: the hold is annotated and its teardown
// is the destruction root, so the retention is accepted (and, per the
// operation→rights table, consumes the control right it demanded).
func (k *Kernel) FixHold(caller *PD, sm *Semaphore) error {
	if _, err := caller.Caps.LookupObj(sm, ObjSemaphore, RightCtrl); err != nil {
		return err
	}
	// caphold: audited fixture registry, emptied on domain destruction; teardown=DestroyPD
	k.sems = append(k.sems, sm)
	return nil
}

// DestroyPD is the fixture's destruction root (sharing the real
// hypercall's table row): it releases everything the kernel holds.
func (k *Kernel) DestroyPD(caller *PD, pd *PD) error {
	if _, err := caller.Caps.LookupObj(pd, ObjPD, RightCtrl); err != nil {
		return err
	}
	pd.dead = true
	k.sems = nil
	k.stash = nil
	k.parked = nil
	return nil
}

// FixHoldBadTeardown annotates its hold, but the named teardown is not
// on any destruction path: the hold is still a leak.
func (k *Kernel) FixHoldBadTeardown(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl); err != nil { // want "not a destruction root"
		return err
	}
	// caphold: stash with a teardown outside every destruction path; teardown=FixHelperPark
	k.stash = ec
	return nil
}

// FixHelperPark releases the stash but nothing ever calls it from a
// destruction root, so naming it as a teardown proves nothing.
func (k *Kernel) FixHelperPark() {
	k.stash = nil
}

// FixChain leaks through a callee: the helper stores its argument into
// kernel state, and the escape is mapped back to the hypercall's
// lookup interprocedurally.
func (k *Kernel) FixChain(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl); err != nil { // want "without a caphold annotation"
		return err
	}
	k.park(ec)
	return nil
}

func (k *Kernel) park(ec *EC) {
	k.stash = ec
}

// FixRecurseDirect stores what relayC, one of a mutually recursive
// pair, returns: the EC escapes through the pair's base case.
func (k *Kernel) FixRecurseDirect(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl); err != nil { // want "without a caphold annotation"
		return err
	}
	k.stash = k.relayC(ec, 2)
	return nil
}

func (k *Kernel) relayC(ec *EC, n int) *EC { return k.relayD(ec, n) }

func (k *Kernel) relayD(ec *EC, n int) *EC {
	if n == 0 {
		return ec
	}
	return k.relayC(ec, n-1)
}

// FixRecurse is FixRecurseDirect after a first call to relayB, the
// other half of its pair: the escape must not depend on which call
// reaches the pair first.
func (k *Kernel) FixRecurse(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl); err != nil { // want "without a caphold annotation"
		return err
	}
	if prev := k.relayB(ec, 1); prev == nil {
		return errLookup
	}
	k.stash = k.relayA(ec, 2)
	return nil
}

func (k *Kernel) relayA(ec *EC, n int) *EC { return k.relayB(ec, n) }

func (k *Kernel) relayB(ec *EC, n int) *EC {
	if n == 0 {
		return ec
	}
	return k.relayA(ec, n-1)
}

// FixVariadic leaks the EC as the second element of a variadic tail,
// whose slice parkAll keeps in kernel state.
func (k *Kernel) FixVariadic(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl); err != nil { // want "without a caphold annotation"
		return err
	}
	k.parkAll(k.stash, ec)
	return nil
}

func (k *Kernel) parkAll(ecs ...*EC) {
	k.parked = ecs
}

// FixHoldTwice leaks through a helper that keeps the EC twice, once
// audited and once not: a flow summary keeps each store site of an
// escape, so the unaudited one still fires.
func (k *Kernel) FixHoldTwice(caller *PD, ec *EC) error {
	if _, err := caller.Caps.LookupObj(ec, ObjEC, RightCtrl); err != nil { // want "without a caphold annotation"
		return err
	}
	k.keepTwice(ec)
	return nil
}

func (k *Kernel) keepTwice(ec *EC) {
	// caphold: audited fixture stash, emptied on domain destruction; teardown=DestroyPD
	k.stash = ec
	k.parked = append(k.parked, ec)
}

// FixDrift has a table row declaring an EC validation, but the body
// performs no lookup at all: specification/implementation drift.
func (k *Kernel) FixDrift(caller *PD, ec *EC) error { // want "performs no such"
	ec.prio = 2
	return nil
}

// FixUnlisted is a hypercall with no table row at all.
func (k *Kernel) FixUnlisted(caller *PD, sm *Semaphore) error { // want "no entry in the capability-rights table"
	if _, err := caller.Caps.LookupObj(sm, ObjSemaphore, RightCall); err != nil {
		return err
	}
	sm.Counter++
	return nil
}

// FixCallPortal traverses a portal through a selector-based lookup with
// call rights: the invocation through the Capability's Obj is covered.
func (k *Kernel) FixCallPortal(caller *PD, sel uint32) error {
	c, err := caller.Caps.LookupTyped(sel, ObjPortal, RightCall)
	if err != nil {
		return err
	}
	pt := c.Obj.(*Portal)
	return pt.Handle()
}

// FixCallBadRights traverses the portal having demanded only read
// rights: rule 1 fires on the invocation.
func (k *Kernel) FixCallBadRights(caller *PD, sel uint32) error {
	c, err := caller.Caps.LookupTyped(sel, ObjPortal, RightRead) // want "requires"
	if err != nil {
		return err
	}
	pt := c.Obj.(*Portal)
	return pt.Handle()
}

// stealCap mutates a capability space outside the kernel: every such
// call must go through a hypercall, where validation and accounting
// live.
func stealCap(pd *PD, sel uint32) {
	pd.Caps.Insert(sel, pd, ObjPD, RightCtrl) // want "bypass"
}

var _ = stealCap
