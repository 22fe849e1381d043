package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Taint is the guest-taint interprocedural dataflow analyzer: the check
// that makes NOVA's trust boundary (§1, §4 of the paper) mechanical.
// The hypervisor and VMM must treat every guest-visible value as
// hostile; in this reproduction that boundary is crossed wherever a
// VM-exit message, a decoded guest instruction, or a byte fetched from
// guest memory flows into host-side indexing, addressing or length
// arithmetic.
//
// The taint lattice:
//
//   - sources: field reads off the guest-state structs (UTCB, VMExit,
//     CPUState — matched by type name so fixtures can model them), and
//     results of the guest-memory readers (GuestRead, guestRead32,
//     ReadPhys32, FetchByte);
//   - sinks: slice/array indices, slice bounds, make() lengths, shift
//     amounts, and hw.Memory physical addresses (Read*/Write*
//     first argument);
//   - sanitizers: a bounds-check comparison or switch on (a root of)
//     the value anywhere in the sink's function, a constant mask
//     (`v & 0x7f`), a modulus, a clamping min(), or an explicit
//     `// sanitized: <why>` comment on the sink line or the line above.
//
// Propagation is interprocedural over the shared call graph
// (callgraph.go): per-function summaries record which parameters reach
// sinks, callee arguments, struct fields and return values; a global
// fixpoint then pushes taint from the sources through call edges
// (including interface calls and method values) and through struct
// fields (field-based, receiver-insensitive — a guest value stored in
// VAHCI.clb taints every later read of .clb). Diagnostics print the
// full interprocedural path in function-name form.
var Taint = &Analyzer{
	Name: "taint",
	Doc:  "guest-controlled values must not reach indices, lengths, shifts or host memory addresses unchecked",
	run:  runTaint,
}

// sourceStructTypes are the type names whose field reads yield
// guest-controlled data. Matched by name (like chargecheck's Kernel) so
// fixture packages can model them.
var sourceStructTypes = map[string]bool{
	"UTCB": true, "VMExit": true, "CPUState": true,
}

// guestReadFuncs return bytes/words read from guest memory or the
// guest instruction stream; their results are intrinsically tainted.
var guestReadFuncs = map[string]bool{
	"GuestRead": true, "guestRead32": true, "ReadPhys32": true,
	"FetchByte": true,
}

// hwMemAccessFuncs are the methods on hw.Memory (matched by receiver
// type name "Memory") whose first argument is a host-physical address —
// an address sink: guest data steering host memory access is exactly
// the DMA-style attack §4.2 rules out.
var hwMemAccessFuncs = map[string]bool{
	"Read8": true, "Read16": true, "Read32": true, "Read64": true,
	"Write8": true, "Write16": true, "Write32": true, "Write64": true,
	"ReadBytes": true, "WriteBytes": true,
}

// --- taint tokens -----------------------------------------------------

const (
	tokSrc   = byte('S') // intrinsic guest source
	tokParam = byte('P') // parameter of the analyzed function (-1 = receiver)
	tokField = byte('F') // struct field (program-global)
)

// tokKey identifies one way a value can be tainted. For sources the
// description participates in identity so distinct sources dedupe
// naturally.
type tokKey struct {
	kind  byte
	param int
	field *types.Var
	src   string
}

// origin records where a token was introduced, for path rendering.
type origin struct {
	pos  token.Pos
	desc string
}

type tokSet map[tokKey]origin

func (ts tokSet) join(other tokSet) bool {
	changed := false
	for k, o := range other {
		if _, ok := ts[k]; !ok {
			ts[k] = o
			changed = true
		}
	}
	return changed
}

// sortedKeys orders tokens deterministically: sources first (direct
// evidence), then parameters, then fields.
func (ts tokSet) sortedKeys() []tokKey {
	keys := make([]tokKey, 0, len(ts))
	for k := range ts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return a.kind == tokSrc || (a.kind == tokParam && b.kind == tokField)
		}
		if a.param != b.param {
			return a.param < b.param
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.field != nil && b.field != nil && a.field != b.field {
			// Fields of different types may share a package and a
			// name; their positions tell them apart, so the order is
			// total and retsSignature a function of the set.
			if ka, kb := a.field.Pkg().Path()+a.field.Name(), b.field.Pkg().Path()+b.field.Name(); ka != kb {
				return ka < kb
			}
			return a.field.Pos() < b.field.Pos()
		}
		return false
	})
	return keys
}

// --- per-function summaries -------------------------------------------

type sinkRec struct {
	pos  token.Pos
	what string // "slice index", "shift amount", ...
	toks tokSet
}

type argFlow struct {
	callee *types.Func
	param  int // -1 = receiver
	toks   tokSet
	pos    token.Pos
}

type fieldFlow struct {
	field *types.Var
	toks  tokSet
	pos   token.Pos
}

type fnSummary struct {
	node   *FuncNode
	params []*types.Var // in signature order; receiver handled separately
	recv   *types.Var
	env    map[types.Object]tokSet
	// rets tracks return taint per result position, so a tuple like
	// (off, seg) where only off is guest-derived does not smear the
	// second result.
	rets    []tokSet
	sinks   []sinkRec
	args    []argFlow
	fields  []fieldFlow
	checked map[string]bool // expr strings bounds-checked in this function
}

// retsSignature is the part of a summary other functions' analyses
// depend on; the whole-program pass iterates until it stabilizes.
func (s *fnSummary) retsSignature() string {
	var parts []string
	for i, set := range s.rets {
		for _, k := range set.sortedKeys() {
			parts = append(parts, fmt.Sprintf("%d:%c%d%s%p", i, k.kind, k.param, k.src, k.field))
		}
	}
	return strings.Join(parts, "|")
}

// --- the analysis ------------------------------------------------------

type taintAnalysis struct {
	pass      *Pass
	cg        *CallGraph
	summaries map[*types.Func]*fnSummary
	sanitized map[*ast.File]map[int]bool // lines covered by // sanitized:
	facts     map[tokKey]*taintFact      // param/field facts, keyed with fn below
	factFns   map[factKey]*taintFact
}

type factKey struct {
	fn    *types.Func // nil for field facts
	param int
	field *types.Var
}

type taintFact struct {
	path []string // human-readable interprocedural steps
}

// maxSummaryRounds caps the return-taint summary fixpoint. The
// repository converges in 15 rounds (TestTaintConvergesOnRepo), the
// last of which changes nothing.
const maxSummaryRounds = 30

func runTaint(pass *Pass) { runTaintRounds(pass, maxSummaryRounds) }

// runTaintRounds runs the analysis with its summary fixpoint capped at
// maxRounds. A fixpoint still moving at the cap reports nothing: the
// program notes the failure, and the suite runner returns it as a load
// error.
func runTaintRounds(pass *Pass, maxRounds int) {
	t := newTaintAnalysis(pass)
	if _, err := t.summarize(maxRounds); err != nil {
		pass.Prog.noteFixpoint(err)
		return
	}
	// Phase 2: global fixpoint pushing taint facts through call edges
	// and struct fields.
	t.solveFacts()
	// Phase 3: report unsanitized sinks reached by active taint in the
	// target packages.
	t.report()
}

func newTaintAnalysis(pass *Pass) *taintAnalysis {
	return &taintAnalysis{
		pass:      pass,
		cg:        pass.Prog.CallGraph(),
		summaries: make(map[*types.Func]*fnSummary),
		sanitized: make(map[*ast.File]map[int]bool),
		factFns:   make(map[factKey]*taintFact),
	}
}

// summarize is phase 1: per-function summaries, iterated until
// return-taint signatures stabilize (callees' summaries feed callers'
// call-result evaluation), for at most maxRounds (>= 1) rounds. It
// returns the rounds it ran, and fails, naming a function whose
// signature moved, if the last round allowed still moved one.
func (t *taintAnalysis) summarize(maxRounds int) (int, error) {
	var moved []*types.Func
	for round := 1; round <= maxRounds; round++ {
		moved = moved[:0]
		for _, node := range t.cg.Ordered {
			old := ""
			if prev, ok := t.summaries[node.Fn]; ok {
				old = prev.retsSignature()
			}
			s := t.analyzeFunc(node)
			t.summaries[node.Fn] = s
			if s.retsSignature() != old {
				moved = append(moved, node.Fn)
			}
		}
		if len(moved) == 0 {
			return round, nil
		}
	}
	return maxRounds, fmt.Errorf("analysis: taint summaries did not converge in %d round(s): the last moved the return taint of %s and %d other(s)",
		maxRounds, moved[0].FullName(), len(moved)-1)
}

// --- phase 1: intra-function flow --------------------------------------

func (t *taintAnalysis) analyzeFunc(node *FuncNode) *fnSummary {
	s := &fnSummary{
		node:    node,
		env:     make(map[types.Object]tokSet),
		checked: make(map[string]bool),
	}
	if sig, ok := node.Fn.Type().(*types.Signature); ok {
		s.rets = make([]tokSet, sig.Results().Len())
		for i := range s.rets {
			s.rets[i] = make(tokSet)
		}
	}
	info := node.Pkg.Info
	fd := node.Decl

	// Seed parameters (and receiver) with their symbolic tokens.
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if v, ok := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
			s.recv = v
			s.env[v] = tokSet{tokKey{kind: tokParam, param: -1}: {pos: fd.Pos()}}
		}
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				s.params = append(s.params, v)
				s.env[v] = tokSet{tokKey{kind: tokParam, param: idx}: {pos: name.Pos()}}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}

	t.collectChecked(s)

	// Local dataflow fixpoint over assignments.
	for iter := 0; iter < 30; iter++ {
		if !t.propagateOnce(s) {
			break
		}
	}
	// Final pass: record sinks, call-argument flows, field writes and
	// return taint against the stabilized environment.
	t.collectFlows(s)
	return s
}

// collectChecked gathers the canonical strings of expressions that
// appear under a comparison or as a switch tag — the bounds-check
// sanitizer set.
func (t *taintAnalysis) collectChecked(s *fnSummary) {
	info := s.node.Pkg.Info
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				addRootStrings(info, s.checked, n.X)
				addRootStrings(info, s.checked, n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				addRootStrings(info, s.checked, n.Tag)
			}
		}
		return true
	})
}

// addRootStrings records every maximal ident/selector chain inside e.
// Conversions are transparent (`int(x) < n` checks x), but other calls
// are not: `len(w) < 5` bounds w's length, not its element values, so
// recursing into call arguments would sanitize far too much.
func addRootStrings(info *types.Info, set map[string]bool, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		set[e.Name] = true
	case *ast.SelectorExpr:
		if s := chainString(e); s != "" {
			set[s] = true
			return
		}
		addRootStrings(info, set, e.X)
	case *ast.ParenExpr:
		addRootStrings(info, set, e.X)
	case *ast.StarExpr:
		addRootStrings(info, set, e.X)
	case *ast.UnaryExpr:
		addRootStrings(info, set, e.X)
	case *ast.BinaryExpr:
		addRootStrings(info, set, e.X)
		addRootStrings(info, set, e.Y)
	case *ast.IndexExpr:
		addRootStrings(info, set, e.X)
		addRootStrings(info, set, e.Index)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			for _, a := range e.Args {
				addRootStrings(info, set, a)
			}
		}
	}
}

// chainString renders a pure ident/selector chain ("a.b.c"), or "".
func chainString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := chainString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return chainString(e.X)
	}
	return ""
}

// propagateOnce runs one pass of assignment propagation; reports
// whether the environment changed.
func (t *taintAnalysis) propagateOnce(s *fnSummary) bool {
	changed := false
	info := s.node.Pkg.Info
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			toks := t.assignRHS(s, n)
			for i, lhs := range n.Lhs {
				set := toks[i]
				if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
					// Compound assignment keeps existing taint too.
					set = set.clone()
					set.join(t.eval(s, lhs))
				}
				if t.joinLHS(s, lhs, set) {
					changed = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				for i, name := range vs.Names {
					var set tokSet
					if len(vs.Values) == len(vs.Names) {
						set = t.eval(s, vs.Values[i])
					} else {
						set = t.eval(s, vs.Values[0]) // tuple from call
					}
					if obj := info.Defs[name]; obj != nil && len(set) > 0 {
						if t.joinObj(s, obj, set) {
							changed = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			xt := t.eval(s, n.X)
			if len(xt) > 0 && n.Value != nil {
				if t.joinLHS(s, n.Value, xt) {
					changed = true
				}
			}
			if len(xt) > 0 && n.Key != nil {
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						if t.joinLHS(s, n.Key, xt) {
							changed = true
						}
					}
				}
			}
		}
		return true
	})
	return changed
}

func (ts tokSet) clone() tokSet {
	out := make(tokSet, len(ts))
	for k, o := range ts {
		out[k] = o
	}
	return out
}

// assignRHS evaluates the right-hand sides of an assignment, expanding
// a single multi-value expression across the LHS slots per result
// position, so `off, seg := f()` taints each variable only with its
// own result's taint.
func (t *taintAnalysis) assignRHS(s *fnSummary, n *ast.AssignStmt) []tokSet {
	out := make([]tokSet, len(n.Lhs))
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		return t.evalMulti(s, n.Rhs[0], len(n.Lhs))
	}
	for i := range n.Lhs {
		if i < len(n.Rhs) {
			out[i] = t.eval(s, n.Rhs[i])
		} else {
			out[i] = tokSet{}
		}
	}
	return out
}

// evalMulti evaluates a multi-valued expression (tuple-returning call,
// `v, ok` map/assert/receive forms) into n per-position token sets.
func (t *taintAnalysis) evalMulti(s *fnSummary, e ast.Expr, n int) []tokSet {
	out := make([]tokSet, n)
	for i := range out {
		out[i] = tokSet{}
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// v, ok := m[k] / x.(T) / <-ch: the value slot carries the
		// operand's taint, the bool is clean.
		out[0] = t.eval(s, e)
		return out
	}
	callees := t.cg.CalleesAt(call)
	if len(callees) == 0 {
		// Unknown tuple call: pass-through into the value slots.
		set := t.passThrough(s, call)
		for i := range out {
			out[i] = set
		}
		return out
	}
	for _, callee := range callees {
		if guestReadFuncs[callee.Name()] {
			desc := "guest memory via " + callee.Name()
			out[0][tokKey{kind: tokSrc, src: desc}] = origin{pos: call.Pos(), desc: desc}
			continue
		}
		sum := t.summaries[callee]
		if sum == nil || len(sum.rets) != n {
			set := t.passThrough(s, call)
			for i := range out {
				out[i].join(set)
			}
			continue
		}
		for i, rset := range sum.rets {
			out[i].join(t.mapCalleeToks(s, call, rset))
		}
	}
	return out
}

// mapCalleeToks translates a callee summary's token set into the
// caller's context: sources and field tokens are global, parameter
// tokens resolve to the call-site argument expressions.
func (t *taintAnalysis) mapCalleeToks(s *fnSummary, call *ast.CallExpr, toks tokSet) tokSet {
	out := make(tokSet)
	for k, o := range toks {
		switch k.kind {
		case tokSrc, tokField:
			out[k] = o
		case tokParam:
			out.join(t.evalCallArg(s, call, k.param))
		}
	}
	return out
}

// joinLHS merges taint into an assignment target: the local variable it
// is rooted at (writing a tainted element taints the whole slice).
// Writes through a struct field are deliberately NOT smeared onto the
// base object — the field-based global facts (recordFieldWrites) track
// that channel precisely; smearing the receiver would flag every later
// access through the object.
func (t *taintAnalysis) joinLHS(s *fnSummary, lhs ast.Expr, toks tokSet) bool {
	if len(toks) == 0 {
		return false
	}
	info := s.node.Pkg.Info
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil || x.Name == "_" {
				return false
			}
			return t.joinObj(s, obj, toks)
		case *ast.SelectorExpr:
			return false // field write: handled field-based
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

func (t *taintAnalysis) joinObj(s *fnSummary, obj types.Object, toks tokSet) bool {
	set, ok := s.env[obj]
	if !ok {
		set = make(tokSet)
		s.env[obj] = set
	}
	return set.join(toks)
}

// eval computes the taint token set of an expression under the current
// environment.
func (t *taintAnalysis) eval(s *fnSummary, e ast.Expr) tokSet {
	info := s.node.Pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		if set, ok := s.env[info.ObjectOf(e)]; ok {
			return set
		}
	case *ast.ParenExpr:
		return t.eval(s, e.X)
	case *ast.StarExpr:
		return t.eval(s, e.X)
	case *ast.UnaryExpr:
		return t.eval(s, e.X)
	case *ast.TypeAssertExpr:
		return t.eval(s, e.X)
	case *ast.IndexExpr:
		return t.eval(s, e.X) // element of a tainted container
	case *ast.SliceExpr:
		return t.eval(s, e.X)
	case *ast.SelectorExpr:
		return t.evalSelector(s, e)
	case *ast.BinaryExpr:
		return t.evalBinary(s, e)
	case *ast.CallExpr:
		return t.evalCall(s, e)
	case *ast.CompositeLit:
		// Struct values carry taint only through their fields, which
		// recordLitFieldWrites tracks globally; unioning the element
		// taints into the value would smear one tainted field over
		// every later read of the object. Slices/arrays/maps union:
		// element reads evaluate to the container's taint.
		if tv, ok := info.Types[e]; ok {
			typ := tv.Type
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if _, isStruct := typ.Underlying().(*types.Struct); isStruct {
				return tokSet{}
			}
		}
		out := make(tokSet)
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out.join(t.eval(s, kv.Value))
			} else {
				out.join(t.eval(s, el))
			}
		}
		return out
	}
	return tokSet{}
}

// evalSelector handles field reads: the base's taint carries through,
// a read off a guest-state struct is an intrinsic source, and a read of
// a program-declared field picks up that field's global taint.
func (t *taintAnalysis) evalSelector(s *fnSummary, e *ast.SelectorExpr) tokSet {
	info := s.node.Pkg.Info
	sel, ok := info.Selections[e]
	if !ok || sel.Kind() != types.FieldVal {
		// Package-qualified name or method value.
		if obj := info.Uses[e.Sel]; obj != nil {
			if set, ok := s.env[obj]; ok {
				return set
			}
		}
		return tokSet{}
	}
	out := t.eval(s, e.X).clone()
	fieldVar, _ := sel.Obj().(*types.Var)
	if tn := sourceTypeName(info, e.X); tn != "" {
		desc := fmt.Sprintf("guest-state field %s.%s", tn, e.Sel.Name)
		out[tokKey{kind: tokSrc, src: desc}] = origin{pos: e.Pos(), desc: desc}
	}
	if fieldVar != nil && isProgramField(fieldVar) {
		out[tokKey{kind: tokField, field: fieldVar}] = origin{pos: e.Pos(), desc: fieldDesc(fieldVar)}
	}
	return out
}

// sourceTypeName reports the guest-state type name if expr's type
// (after pointer stripping) is one of the source structs.
func sourceTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	typ := tv.Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	if sourceStructTypes[named.Obj().Name()] {
		return named.Obj().Name()
	}
	return ""
}

// isProgramField restricts field-based taint to structs declared in the
// analyzed program (module or fixture packages), not the stdlib.
func isProgramField(f *types.Var) bool {
	return f.Pkg() != nil && (strings.HasPrefix(f.Pkg().Path(), ModulePath) ||
		strings.HasPrefix(f.Pkg().Path(), "fixture/"))
}

func fieldDesc(f *types.Var) string {
	return "field " + f.Name()
}

func (t *taintAnalysis) evalBinary(s *fnSummary, e *ast.BinaryExpr) tokSet {
	info := s.node.Pkg.Info
	switch e.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ,
		token.LAND, token.LOR:
		return tokSet{} // booleans carry no index taint
	case token.AND:
		// A constant mask bounds the value: sanitized.
		if isConstExpr(info, e.X) || isConstExpr(info, e.Y) {
			return tokSet{}
		}
	case token.REM:
		// x % y is bounded by y; taint follows the modulus only.
		return t.eval(s, e.Y)
	}
	out := t.eval(s, e.X).clone()
	out.join(t.eval(s, e.Y))
	return out
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// evalCall models calls: conversions and builtins inline, guest-memory
// readers as sources, program functions through their return summaries,
// and unknown (stdlib) functions as taint-preserving pass-through.
func (t *taintAnalysis) evalCall(s *fnSummary, call *ast.CallExpr) tokSet {
	info := s.node.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return t.eval(s, call.Args[0]) // conversion
		}
		return tokSet{}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "copy", "make", "new", "delete", "clear":
				return tokSet{}
			case "min":
				// min() with any untainted operand clamps the result.
				out := make(tokSet)
				for _, a := range call.Args {
					at := t.eval(s, a)
					if len(at) == 0 {
						return tokSet{}
					}
					out.join(at)
				}
				return out
			case "append", "max":
				out := make(tokSet)
				for _, a := range call.Args {
					out.join(t.eval(s, a))
				}
				return out
			default:
				return tokSet{}
			}
		}
	}

	callees := t.cg.CalleesAt(call)
	if len(callees) == 0 {
		return t.passThrough(s, call)
	}
	out := make(tokSet)
	for _, callee := range callees {
		if guestReadFuncs[callee.Name()] {
			desc := "guest memory via " + callee.Name()
			out[tokKey{kind: tokSrc, src: desc}] = origin{pos: call.Pos(), desc: desc}
			continue
		}
		sum := t.summaries[callee]
		if sum == nil {
			out.join(t.passThrough(s, call))
			continue
		}
		for _, rset := range sum.rets {
			out.join(t.mapCalleeToks(s, call, rset))
		}
	}
	return out
}

// passThrough is the model for functions without a body in the program
// (stdlib): taint in, taint out.
func (t *taintAnalysis) passThrough(s *fnSummary, call *ast.CallExpr) tokSet {
	out := make(tokSet)
	for _, a := range call.Args {
		out.join(t.eval(s, a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := s.node.Pkg.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			out.join(t.eval(s, sel.X))
		}
	}
	return out
}

// evalCallArg returns the taint of the expression bound to a callee
// parameter (-1 = receiver) at this call site.
func (t *taintAnalysis) evalCallArg(s *fnSummary, call *ast.CallExpr, param int) tokSet {
	if param == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if selInfo, ok := s.node.Pkg.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
				return t.eval(s, sel.X)
			}
		}
		return tokSet{}
	}
	if param >= 0 && param < len(call.Args) {
		return t.eval(s, call.Args[param])
	}
	if len(call.Args) > 0 && param >= len(call.Args) {
		return t.eval(s, call.Args[len(call.Args)-1]) // variadic tail
	}
	return tokSet{}
}

// --- flows and sinks ----------------------------------------------------

// collectFlows records, against the stabilized environment: sink hits,
// taint entering call arguments, taint stored into fields, and taint
// reaching return values.
func (t *taintAnalysis) collectFlows(s *fnSummary) {
	info := s.node.Pkg.Info
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array:
				t.checkSink(s, n.Index, n.Pos(), "slice/array index")
			case *types.Pointer: // *[N]T indexing
				t.checkSink(s, n.Index, n.Pos(), "slice/array index")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil {
					t.checkSink(s, bound, n.Pos(), "slice bound")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.SHL || n.Op == token.SHR {
				t.checkSink(s, n.Y, n.Pos(), "shift amount")
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
				t.checkSink(s, n.Rhs[0], n.Pos(), "shift amount")
			}
			t.recordFieldWrites(s, n)
		case *ast.CompositeLit:
			t.recordLitFieldWrites(s, n)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
					for _, a := range n.Args[1:] {
						t.checkSink(s, a, n.Pos(), "make length")
					}
				}
			}
			t.recordCallFlows(s, n)
		case *ast.ReturnStmt:
			switch {
			case len(n.Results) == len(s.rets):
				for i, r := range n.Results {
					s.rets[i].join(t.eval(s, r))
				}
			case len(n.Results) == 1 && len(s.rets) > 1:
				// return f() forwarding a tuple
				for i, set := range t.evalMulti(s, n.Results[0], len(s.rets)) {
					s.rets[i].join(set)
				}
			case len(n.Results) == 0 && s.node.Decl.Type.Results != nil:
				i := 0
				for _, field := range s.node.Decl.Type.Results.List {
					for _, name := range field.Names {
						if set, ok := s.env[info.Defs[name]]; ok && i < len(s.rets) {
							s.rets[i].join(set)
						}
						i++
					}
					if len(field.Names) == 0 {
						i++
					}
				}
			}
		}
		return true
	})
}

// checkSink records a sink hit unless the value is constant or
// sanitized.
func (t *taintAnalysis) checkSink(s *fnSummary, e ast.Expr, pos token.Pos, what string) {
	info := s.node.Pkg.Info
	if isConstExpr(info, e) {
		return
	}
	toks := t.eval(s, e)
	if len(toks) == 0 {
		return
	}
	if t.isSanitized(s, e, pos) {
		return
	}
	s.sinks = append(s.sinks, sinkRec{pos: pos, what: what, toks: toks.clone()})
}

// isSanitized reports whether a sink value passed a bounds check (a
// root of the expression appears under a comparison or switch in this
// function) or carries a `// sanitized:` annotation on its line or the
// line above.
func (t *taintAnalysis) isSanitized(s *fnSummary, e ast.Expr, pos token.Pos) bool {
	roots := make(map[string]bool)
	addRootStrings(s.node.Pkg.Info, roots, e)
	for r := range roots {
		if s.checked[r] {
			return true
		}
	}
	file := fileOf(s.node.Pkg, pos)
	if file == nil {
		return false
	}
	lines := t.sanitizedLinesFor(file)
	line := t.pass.Prog.Fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// sanitizedLinesFor caches, per file, the lines covered by a
// `// sanitized: <why>` annotation (the comment's lines themselves, so
// both trailing comments and comment-above forms work).
func (t *taintAnalysis) sanitizedLinesFor(f *ast.File) map[int]bool {
	if lines, ok := t.sanitized[f]; ok {
		return lines
	}
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		if !strings.Contains(cg.Text(), "sanitized:") {
			continue
		}
		start := t.pass.Prog.Fset.Position(cg.Pos()).Line
		end := t.pass.Prog.Fset.Position(cg.End()).Line
		for l := start; l <= end; l++ {
			lines[l] = true
		}
	}
	t.sanitized[f] = lines
	return lines
}

// recordFieldWrites captures taint stored into struct fields through
// assignment statements.
func (t *taintAnalysis) recordFieldWrites(s *fnSummary, n *ast.AssignStmt) {
	info := s.node.Pkg.Info
	toks := t.assignRHS(s, n)
	for i, lhs := range n.Lhs {
		set := toks[i]
		if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
			set = set.clone()
			set.join(t.eval(s, lhs))
		}
		if len(set) == 0 {
			continue
		}
		target := lhs
		for {
			if idx, ok := target.(*ast.IndexExpr); ok {
				target = idx.X
				continue
			}
			if star, ok := target.(*ast.StarExpr); ok {
				target = star.X
				continue
			}
			break
		}
		sel, ok := target.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		selInfo, ok := info.Selections[sel]
		if !ok || selInfo.Kind() != types.FieldVal {
			continue
		}
		f, ok := selInfo.Obj().(*types.Var)
		if !ok || !isProgramField(f) {
			continue
		}
		if t.isSanitized(s, n.Rhs[min(i, len(n.Rhs)-1)], n.Pos()) {
			continue
		}
		s.fields = append(s.fields, fieldFlow{field: f, toks: set.clone(), pos: n.Pos()})
	}
}

// recordLitFieldWrites captures taint stored into fields via composite
// literals (DiskRequest{LBA: guestLBA, ...}).
func (t *taintAnalysis) recordLitFieldWrites(s *fnSummary, n *ast.CompositeLit) {
	info := s.node.Pkg.Info
	tv, ok := info.Types[n]
	if !ok {
		return
	}
	typ := tv.Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, el := range n.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		set := t.eval(s, kv.Value)
		if len(set) == 0 {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == key.Name && isProgramField(f) {
				if !t.isSanitized(s, kv.Value, kv.Pos()) {
					s.fields = append(s.fields, fieldFlow{field: f, toks: set.clone(), pos: kv.Pos()})
				}
				break
			}
		}
	}
}

// recordCallFlows captures taint entering callee parameters, for the
// interprocedural fixpoint.
func (t *taintAnalysis) recordCallFlows(s *fnSummary, call *ast.CallExpr) {
	callees := t.cg.CalleesAt(call)
	if len(callees) == 0 {
		return
	}
	for _, callee := range callees {
		if t.cg.Node(callee) == nil {
			continue // no body: nothing to propagate into
		}
		for j, a := range call.Args {
			set := t.eval(s, a)
			if len(set) == 0 || t.isSanitized(s, a, a.Pos()) {
				continue
			}
			s.args = append(s.args, argFlow{callee: callee, param: j, toks: set.clone(), pos: call.Pos()})
		}
		// Receiver taint is deliberately not propagated as a fact: an
		// object is "tainted" only through specific fields, and those
		// travel via the field-based channel.
	}
}

// --- phase 2: global fact fixpoint --------------------------------------

// tokenFact resolves a symbolic token to its active taint fact within
// fn, or nil if the token is not currently tainted.
func (t *taintAnalysis) tokenFact(fn *types.Func, k tokKey, o origin) (*taintFact, bool) {
	switch k.kind {
	case tokSrc:
		return &taintFact{path: []string{fmt.Sprintf("%s (in %s)", o.desc, FuncDisplayName(fn))}}, true
	case tokParam:
		f, ok := t.factFns[factKey{fn: fn, param: k.param}]
		return f, ok
	case tokField:
		f, ok := t.factFns[factKey{param: -2, field: k.field}]
		return f, ok
	}
	return nil, false
}

const maxPathSteps = 12

func (t *taintAnalysis) solveFacts() {
	for changed := true; changed; {
		changed = false
		for _, node := range t.cg.Ordered {
			s := t.summaries[node.Fn]
			if s == nil {
				continue
			}
			for _, af := range s.args {
				for _, k := range af.toks.sortedKeys() {
					base, ok := t.tokenFact(node.Fn, k, af.toks[k])
					if !ok {
						continue
					}
					key := factKey{fn: af.callee, param: af.param}
					if _, exists := t.factFns[key]; exists {
						continue
					}
					if len(base.path) >= maxPathSteps {
						continue
					}
					what := "receiver"
					if af.param >= 0 {
						what = fmt.Sprintf("parameter %s", calleeParamName(t.cg, af.callee, af.param))
					}
					t.factFns[key] = &taintFact{path: append(append([]string{}, base.path...),
						fmt.Sprintf("passed to %s of %s", what, FuncDisplayName(af.callee)))}
					changed = true
				}
			}
			for _, ff := range s.fields {
				for _, k := range ff.toks.sortedKeys() {
					base, ok := t.tokenFact(node.Fn, k, ff.toks[k])
					if !ok {
						continue
					}
					key := factKey{param: -2, field: ff.field}
					if _, exists := t.factFns[key]; exists {
						continue
					}
					if len(base.path) >= maxPathSteps {
						continue
					}
					t.factFns[key] = &taintFact{path: append(append([]string{}, base.path...),
						fmt.Sprintf("stored into field %s (in %s)", fieldQualName(ff.field), FuncDisplayName(node.Fn)))}
					changed = true
				}
			}
		}
	}
}

// calleeParamName names a callee parameter for path rendering.
func calleeParamName(cg *CallGraph, fn *types.Func, idx int) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || idx >= sig.Params().Len() {
		return fmt.Sprintf("#%d", idx)
	}
	if name := sig.Params().At(min(idx, sig.Params().Len()-1)).Name(); name != "" {
		return name
	}
	return fmt.Sprintf("#%d", idx)
}

func fieldQualName(f *types.Var) string {
	name := f.Name()
	if owner := fieldOwner(f); owner != "" {
		name = owner + "." + name
	}
	return name
}

// fieldOwner finds the struct type name declaring f, best-effort.
func fieldOwner(f *types.Var) string {
	if f.Pkg() == nil {
		return ""
	}
	scope := f.Pkg().Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name()
			}
		}
	}
	return ""
}

// --- phase 3: reporting -------------------------------------------------

func (t *taintAnalysis) report() {
	targets := make(map[*Package]bool, len(t.pass.Targets))
	for _, pkg := range t.pass.Targets {
		targets[pkg] = true
	}
	for _, node := range t.cg.Ordered {
		if !targets[node.Pkg] {
			continue
		}
		s := t.summaries[node.Fn]
		if s == nil {
			continue
		}
		for _, sink := range s.sinks {
			for _, k := range sink.toks.sortedKeys() {
				fact, ok := t.tokenFact(node.Fn, k, sink.toks[k])
				if !ok {
					continue
				}
				path := strings.Join(append(append([]string{}, fact.path...),
					fmt.Sprintf("reaches %s in %s", sink.what, FuncDisplayName(node.Fn))), " -> ")
				t.pass.Reportf(sink.pos, "guest-controlled value reaches %s without bounds check or // sanitized: annotation; path: %s", sink.what, path)
				break // one report per sink site
			}
		}
	}
}
