// Fixture for the taint analyzer. Local types named UTCB / VMExit /
// CPUState model the hypervisor's guest-state carriers (the analyzer
// matches source types by name, like chargecheck's Kernel), and a local
// FetchByte models the decoder's guest instruction-stream reader.
package fixture

// VMExit models hypervisor.VMExit: every field is guest-controlled.
type VMExit struct {
	Reason int
	Port   uint16
	GPA    uint64
	Qual   uint64
}

// CPUState models x86.CPUState.
type CPUState struct {
	IP uint32
}

// UTCB models hypervisor.UTCB.
type UTCB struct {
	Words []uint64
	N     int
}

// FetchByte models the decoder's instruction-stream reader; its result
// is intrinsically guest-controlled.
func FetchByte() byte { return 0x90 }

// direct: a guest-state field flows straight into an index.
func direct(e *VMExit, tbl []byte) byte {
	return tbl[e.Reason] // want "reaches slice/array index"
}

// Two-hop interprocedural flow: the source is read in route, travels
// through step1 into step2, and only sinks there.
func route(e *VMExit, tbl []byte) byte {
	return step1(tbl, int(e.Reason))
}

func step1(tbl []byte, i int) byte {
	return step2(tbl, i)
}

func step2(tbl []byte, i int) byte {
	return tbl[i] // want "passed to parameter i of taint.step2"
}

// intrinsic: the result of a guest-memory reader is tainted.
func intrinsic(tbl []byte) byte {
	b := FetchByte()
	return tbl[b] // want "guest memory via FetchByte"
}

// shifted: a guest field used as a shift amount.
func shifted(e *VMExit) uint32 {
	return uint32(1) << e.Port // want "reaches shift amount"
}

// sized: a guest field used as an allocation length.
func sized(e *VMExit) []byte {
	return make([]byte, e.Qual) // want "reaches make length"
}

// resliced: a guest field used as a slice bound.
func resliced(u *UTCB) []uint64 {
	return u.Words[:u.N] // want "reaches slice bound"
}

// ring demonstrates field-based flow: record stores a guest value into
// a struct field, load reads it back in a different function.
type ring struct {
	head uint32
}

func (r *ring) record(s *CPUState) {
	r.head = s.IP
}

func (r *ring) load(tbl []byte) byte {
	return tbl[r.head] // want "reaches slice/array index"
}

// bounded is clean: the index is compared against len before use.
func bounded(e *VMExit, tbl []byte) byte {
	i := int(e.Reason)
	if i < 0 || i >= len(tbl) {
		return 0
	}
	return tbl[i]
}

// annotated is clean: the sink carries a sanitizer annotation.
func annotated(e *VMExit, tbl []byte) byte {
	// sanitized: caller guarantees GPA was range-checked at decode time
	return tbl[e.GPA]
}

// masked is clean: an AND with a constant bounds the value.
func masked(e *VMExit, tbl *[8]byte) byte {
	return tbl[e.Reason&7]
}

// switched is clean: the switch tag counts as a dominating comparison.
func switched(e *VMExit, tbl []byte) byte {
	switch e.Reason {
	case 0:
		return tbl[e.Reason]
	}
	return 0
}

// variadicTail passes a guest value as the second element of a
// variadic tail: the parameter takes every trailing argument.
func variadicTail(e *VMExit, tbl []byte) byte {
	return pick(tbl, 0, int(e.Reason))
}

func pick(tbl []byte, idx ...int) byte {
	return tbl[idx[1]] // want "passed to parameter idx of taint.pick"
}

// splitGuest returns a guest-derived offset and a clean segment.
func splitGuest(e *VMExit) (int, int) {
	return int(e.Reason), 3
}

// splitVar is clean: a var declaration from a tuple binds each name to
// its own result, like the := form in splitDefine.
func splitVar(e *VMExit, tbl []byte) byte {
	var off, seg = splitGuest(e)
	return tbl[seg] + byte(off&1)
}

func splitDefine(e *VMExit, tbl []byte) byte {
	off, seg := splitGuest(e)
	return tbl[seg] + byte(off&1)
}

// chain0 hands a guest value down twelve calls before it reaches the
// sink: a fact is kept however far it travels, and only the rendered
// path is cut.
func chain0(e *VMExit, tbl []byte) byte { return chain1(tbl, int(e.Reason)) }
func chain1(tbl []byte, i int) byte     { return chain2(tbl, i) }
func chain2(tbl []byte, i int) byte     { return chain3(tbl, i) }
func chain3(tbl []byte, i int) byte     { return chain4(tbl, i) }
func chain4(tbl []byte, i int) byte     { return chain5(tbl, i) }
func chain5(tbl []byte, i int) byte     { return chain6(tbl, i) }
func chain6(tbl []byte, i int) byte     { return chain7(tbl, i) }
func chain7(tbl []byte, i int) byte     { return chain8(tbl, i) }
func chain8(tbl []byte, i int) byte     { return chain9(tbl, i) }
func chain9(tbl []byte, i int) byte     { return chain10(tbl, i) }
func chain10(tbl []byte, i int) byte    { return chain11(tbl, i) }
func chain11(tbl []byte, i int) byte    { return chain12(tbl, i) }
func chain12(tbl []byte, i int) byte {
	return tbl[i] // want "reaches slice/array index in taint.chain12"
}

// constIndex is clean: zeroOf, declared after it, returns no guest
// data. The first round models the not yet summarized callee as
// passing its argument through, and that stand-in must not outlive
// zeroOf's summary.
func constIndex(e *VMExit, tbl []byte) byte {
	return tbl[zeroOf(int(e.Reason))]
}

func zeroOf(int) int { return 0 }
