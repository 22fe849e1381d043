// Package cap implements NOVA's capability system (§5): capability
// spaces indexed by integral selectors, typed capabilities with
// permission masks, and the mapping database that records every
// delegation so that resources can be recursively revoked (§6).
//
// Capabilities are opaque and immutable to user components: they cannot
// be inspected, modified or addressed directly — only named through
// selectors, delegated with equal-or-reduced permissions, and revoked.
package cap

import (
	"errors"
	"fmt"
)

// Selector names a capability within a protection domain's capability
// space, like a Unix file descriptor.
type Selector uint32

// Rights is the permission mask carried by a capability. The meaning of
// each bit depends on the object type (e.g. for a portal: call; for a
// PD: create/destroy; for memory: read/write/execute).
type Rights uint8

// Generic permission bits.
const (
	RightRead Rights = 1 << iota
	RightWrite
	RightExec
	RightCtrl // create/destroy/recall/assign
	RightCall // invoke (portals, semaphores)

	RightsAll = RightRead | RightWrite | RightExec | RightCtrl | RightCall
)

func (r Rights) String() string {
	b := []byte("-----")
	if r&RightRead != 0 {
		b[0] = 'r'
	}
	if r&RightWrite != 0 {
		b[1] = 'w'
	}
	if r&RightExec != 0 {
		b[2] = 'x'
	}
	if r&RightCtrl != 0 {
		b[3] = 'c'
	}
	if r&RightCall != 0 {
		b[4] = 'p'
	}
	return string(b)
}

// ObjType classifies kernel objects.
type ObjType int

// The five kernel object types of the microhypervisor (§5), plus the
// null type.
const (
	ObjNull ObjType = iota
	ObjPD
	ObjEC
	ObjSC
	ObjPortal
	ObjSemaphore
)

var objNames = map[ObjType]string{
	ObjNull: "null", ObjPD: "pd", ObjEC: "ec", ObjSC: "sc",
	ObjPortal: "portal", ObjSemaphore: "semaphore",
}

func (t ObjType) String() string {
	if s, ok := objNames[t]; ok {
		return s
	}
	return fmt.Sprintf("ObjType(%d)", int(t))
}

// Object is implemented by every kernel object that can be referenced by
// a capability.
type Object interface {
	ObjectType() ObjType
}

// Capability couples a kernel object with the holder's permissions.
type Capability struct {
	Obj    Object
	Type   ObjType
	Rights Rights
}

// Errors returned by capability-space operations.
var (
	ErrEmptySlot   = errors.New("cap: empty selector")
	ErrOccupied    = errors.New("cap: selector already in use")
	ErrBadType     = errors.New("cap: wrong object type")
	ErrNoRights    = errors.New("cap: insufficient rights")
	ErrRevoked     = errors.New("cap: capability revoked")
	ErrInvalidSel  = errors.New("cap: invalid selector")
	ErrNotDeleg    = errors.New("cap: not delegatable")
	ErrSpaceClosed = errors.New("cap: space destroyed")
)

// Space is one protection domain's capability space.
type Space struct {
	name    string
	idx     index
	closed  bool
	nextSel Selector

	// Stats.
	Inserts   uint64
	Delegates uint64
	Revokes   uint64
	Lookups   uint64
}

// NewSpace creates an empty capability space.
func NewSpace(name string) *Space {
	return &Space{name: name}
}

// Name returns the space's debugging name.
func (s *Space) Name() string { return s.name }

// AllocSel returns an unused selector. Selectors below 1024 are left
// to the VM-exit portal convention (32 per virtual CPU).
func (s *Space) AllocSel() Selector {
	if s.nextSel < 1024 {
		s.nextSel = 1024
	}
	for {
		s.nextSel++
		if s.idx.get(uint32(s.nextSel)) == nil {
			return s.nextSel
		}
	}
}

// Len returns the number of occupied selectors.
func (s *Space) Len() int { return s.idx.len }

// Selectors returns the occupied selectors in ascending order.
func (s *Space) Selectors() []Selector {
	out := make([]Selector, 0, min(s.idx.len, keyBound))
	for n := s.idx.next(0); n != nil; n = s.idx.next(n.key + 1) {
		out = append(out, Selector(n.key))
	}
	return out
}

// free checks that sel can take a new capability.
func (s *Space) free(sel Selector) error {
	if sel >= keyBound {
		return ErrInvalidSel
	}
	if s.idx.get(uint32(sel)) != nil {
		return ErrOccupied
	}
	return nil
}

// Insert installs a root capability (a freshly created kernel object)
// at sel. Root capabilities have no parent in the mapping database.
func (s *Space) Insert(sel Selector, obj Object, rights Rights) error {
	if s.closed {
		return ErrSpaceClosed
	}
	if err := s.free(sel); err != nil {
		return err
	}
	s.idx.insert(uint32(sel), 1, &node{obj: obj, typ: obj.ObjectType(), rights: rights})
	s.Inserts++
	return nil
}

// capability returns a copy of the capability n holds.
func (n *node) capability() Capability {
	return Capability{Obj: n.obj, Type: n.typ, Rights: n.rights}
}

// Lookup resolves a selector to a capability. The capability value is a
// copy: holders cannot mutate the space through it.
func (s *Space) Lookup(sel Selector) (Capability, error) {
	s.Lookups++
	n := s.idx.get(uint32(sel))
	if n == nil {
		return Capability{}, ErrEmptySlot
	}
	return n.capability(), nil
}

// LookupTyped resolves a selector and checks type and rights in one
// step, as the hypercall layer does.
func (s *Space) LookupTyped(sel Selector, t ObjType, need Rights) (Capability, error) {
	c, err := s.Lookup(sel)
	if err != nil {
		return Capability{}, err
	}
	if c.Type != t {
		return Capability{}, ErrBadType
	}
	if c.Rights&need != need {
		return Capability{}, ErrNoRights
	}
	return c, nil
}

// LookupObj is the reverse validation used by hypercalls that receive a
// kernel object by reference: it proves the holder names obj somewhere
// in this space with at least the needed rights. The scan is in
// selector order, so the lowest selector naming obj with sufficient
// rights wins. Like Lookup, the returned capability is a copy.
func (s *Space) LookupObj(obj Object, t ObjType, need Rights) (Capability, error) {
	if s.closed {
		return Capability{}, ErrSpaceClosed
	}
	s.Lookups++
	named := false
	for n := s.idx.next(0); n != nil; n = s.idx.next(n.key + 1) {
		if n.obj != obj || n.typ != t {
			continue
		}
		if n.rights&need == need {
			return n.capability(), nil
		}
		named = true
	}
	if named {
		return Capability{}, ErrNoRights
	}
	return Capability{}, ErrEmptySlot
}

// SelectorOf returns the lowest selector naming obj in this space, for
// brokering helpers that need to re-delegate an object they hold.
func (s *Space) SelectorOf(obj Object) (Selector, bool) {
	for n := s.idx.next(0); n != nil; n = s.idx.next(n.key + 1) {
		if n.obj == obj {
			return Selector(n.key), true
		}
	}
	return 0, false
}

// Delegate copies the capability at srcSel into dst at dstSel, with
// rights reduced by mask, and records the delegation in the mapping
// database. The receiver's capability can later be withdrawn by
// revoking the source (§6).
func (s *Space) Delegate(srcSel Selector, dst *Space, dstSel Selector, mask Rights) error {
	if s.closed || dst.closed {
		return ErrSpaceClosed
	}
	src := s.idx.get(uint32(srcSel))
	if src == nil {
		return ErrEmptySlot
	}
	if err := dst.free(dstSel); err != nil {
		return err
	}
	dst.idx.delegate(uint32(dstSel), 1, &node{obj: src.obj, typ: src.typ, rights: src.rights & mask}, src, src.key)
	s.Delegates++
	return nil
}

// Revoke withdraws all capabilities that were delegated (transitively)
// from sel, depth first in delegation order. If self is true, the
// capability at sel itself is removed as well. It returns how many
// capabilities were removed.
func (s *Space) Revoke(sel Selector, self bool) (int, error) {
	n := s.idx.get(uint32(sel))
	if n == nil {
		return 0, ErrEmptySlot
	}
	s.Revokes++
	return n.revoke(self), nil
}

// Remove deletes the capability at sel from this space only (close-like
// semantics; delegated children survive and reparent to nothing —
// matching NOVA where removing your own selector does not revoke).
func (s *Space) Remove(sel Selector) error {
	n := s.idx.get(uint32(sel))
	if n == nil {
		return ErrEmptySlot
	}
	n.remove()
	return nil
}

// Destroy closes the space, revoking everything delegated from it in
// selector order. Revocation cannot fail, so the error is always nil.
func (s *Space) Destroy() error {
	s.idx.destroy()
	s.closed = true
	return nil
}
