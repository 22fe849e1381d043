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
// VAHCI.clb taints every later read of .clb), however many steps away.
// Call binding, assignment propagation and the return-taint summary
// fixpoint are the dataflow skeleton shared with the write-effect
// engine and capflow (dataflow.go). Diagnostics print the
// interprocedural path in function-name form, its first maxPath steps.
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
	param  int
	toks   tokSet
	pos    token.Pos
}

type fieldFlow struct {
	field *types.Var
	toks  tokSet
	pos   token.Pos
}

type fnSummary struct {
	frame[tokSet]
	t *taintAnalysis
	// rets tracks return taint per result position, so a tuple like
	// (off, seg) where only off is guest-derived does not smear the
	// second result.
	rets    []tokSet
	sinks   []sinkRec
	args    []argFlow
	fields  []fieldFlow
	checked map[string]bool // expr strings bounds-checked in this function
}

// signature is the part of a summary other functions' analyses depend
// on: the return taint.
func (s *fnSummary) signature() string {
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
// repository converges in 15 rounds (logged by TestRepoInvariants), the
// last of which changes nothing.
const maxSummaryRounds = 30

func runTaint(pass *Pass) { runTaintCapped(pass, fixCaps{maxSummaryRounds, maxLocalPasses}) }

// runTaintCapped runs the analysis with its fixpoints capped. A
// fixpoint still moving at its cap reports nothing: the program notes
// the failure, and the suite runner returns it as a load error.
func runTaintCapped(pass *Pass, c fixCaps) {
	t := newTaintAnalysis(pass)
	if err := t.summarize(c); err != nil {
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

// summarize is phase 1: per-function summaries, solved until return
// taint stabilizes (callees' summaries feed callers' call-result
// evaluation).
func (t *taintAnalysis) summarize(c fixCaps) error {
	return solve(t.pass.Prog, "taint", c.rounds, t.summaries, func(node *FuncNode) (*fnSummary, error) {
		return t.analyzeFunc(node, c.passes)
	})
}

// --- phase 1: intra-function flow --------------------------------------

func (t *taintAnalysis) analyzeFunc(node *FuncNode, passes int) (*fnSummary, error) {
	s := &fnSummary{
		// Parameters (and the receiver) start as their symbolic tokens.
		frame: newFrame(node, func(i int) tokSet {
			return tokSet{tokKey{kind: tokParam, param: i}: {}}
		}),
		t:       t,
		checked: make(map[string]bool),
	}
	if sig, ok := node.Fn.Type().(*types.Signature); ok {
		s.rets = make([]tokSet, sig.Results().Len())
		for i := range s.rets {
			s.rets[i] = make(tokSet)
		}
	}
	s.collectChecked()
	if err := s.propagate(s, passes); err != nil {
		return nil, err
	}
	// Final pass: record sinks, call-argument flows, field writes and
	// return taint against the stabilized environment.
	s.collectFlows()
	return s, nil
}

// collectChecked gathers the canonical strings of expressions that
// appear under a comparison or as a switch tag — the bounds-check
// sanitizer set.
func (s *fnSummary) collectChecked() {
	info := s.info
	s.inspect(func(n ast.Node) bool {
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

func (ts tokSet) clone() tokSet {
	out := make(tokSet, len(ts))
	for k, o := range ts {
		out[k] = o
	}
	return out
}

// mapCalleeToks translates a callee summary's token set into the
// caller's context: sources and field tokens are global, parameter
// tokens resolve to the call-site argument expressions.
func (s *fnSummary) mapCalleeToks(call *ast.CallExpr, toks tokSet) tokSet {
	out := make(tokSet)
	for k, o := range toks {
		switch k.kind {
		case tokSrc, tokField:
			out[k] = o
		case tokParam:
			out.join(s.evalBound(call, k.param))
		}
	}
	return out
}

// bind merges taint into an assignment target: the local variable it
// is rooted at (writing a tainted element taints the whole slice).
// Writes through a struct field are deliberately NOT smeared onto the
// base object — the field-based global facts (recordFieldWrites) track
// that channel precisely; smearing the receiver would flag every later
// access through the object.
func (s *fnSummary) bind(lhs ast.Expr, toks tokSet) bool {
	obj, _ := s.target(lhs, false)
	if len(toks) == 0 || obj == nil {
		return false
	}
	set, ok := s.env[obj]
	if !ok {
		set = make(tokSet)
		s.env[obj] = set
	}
	return set.join(toks)
}

// rangeValues: a range value carries the container's taint, and so
// does a map key.
func (s *fnSummary) rangeValues(x ast.Expr) (key, val tokSet) {
	val = s.eval(x)
	if tv, ok := s.info.Types[x]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			key = val
		}
	}
	return key, val
}

// eval computes the taint token set of an expression under the current
// environment.
func (s *fnSummary) eval(e ast.Expr) tokSet {
	info := s.info
	switch e := e.(type) {
	case *ast.Ident:
		if set, ok := s.env[info.ObjectOf(e)]; ok {
			return set
		}
	case *ast.ParenExpr:
		return s.eval(e.X)
	case *ast.StarExpr:
		return s.eval(e.X)
	case *ast.UnaryExpr:
		return s.eval(e.X)
	case *ast.TypeAssertExpr:
		return s.eval(e.X)
	case *ast.IndexExpr:
		return s.eval(e.X) // element of a tainted container
	case *ast.SliceExpr:
		return s.eval(e.X)
	case *ast.SelectorExpr:
		return s.evalSelector(e)
	case *ast.BinaryExpr:
		return s.evalBinary(e)
	case *ast.CallExpr:
		return s.evalCall(e)
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
				out.join(s.eval(kv.Value))
			} else {
				out.join(s.eval(el))
			}
		}
		return out
	}
	return tokSet{}
}

// evalSelector handles field reads: the base's taint carries through,
// a read off a guest-state struct is an intrinsic source, and a read of
// a program-declared field picks up that field's global taint.
func (s *fnSummary) evalSelector(e *ast.SelectorExpr) tokSet {
	info := s.info
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
	out := s.eval(e.X).clone()
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

func (s *fnSummary) evalBinary(e *ast.BinaryExpr) tokSet {
	info := s.info
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
		return s.eval(e.Y)
	}
	out := s.eval(e.X).clone()
	out.join(s.eval(e.Y))
	return out
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// evalCall models calls: conversions and builtins inline, guest-memory
// readers as sources, program functions through their return summaries,
// and unknown (stdlib) functions as taint-preserving pass-through.
func (s *fnSummary) evalCall(call *ast.CallExpr) tokSet {
	info := s.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return s.eval(call.Args[0]) // conversion
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
					at := s.eval(a)
					if len(at) == 0 {
						return tokSet{}
					}
					out.join(at)
				}
				return out
			case "append", "max":
				out := make(tokSet)
				for _, a := range call.Args {
					out.join(s.eval(a))
				}
				return out
			default:
				return tokSet{}
			}
		}
	}

	out := make(tokSet)
	for _, set := range s.callResults(call, numResults(info, call)) {
		out.join(set)
	}
	return out
}

// callResults is the taint of each of a call's n results: a guest-memory
// reader's first result is a source, a program function maps its return
// summary through the call site, and anything else (stdlib, a call
// through a func value) passes its arguments' taint through.
func (s *fnSummary) callResults(call *ast.CallExpr, n int) []tokSet {
	out := make([]tokSet, n)
	for i := range out {
		out[i] = tokSet{}
	}
	callees := s.t.cg.CalleesAt(call)
	for _, callee := range callees {
		switch sum := s.t.summaries[callee]; {
		case guestReadFuncs[callee.Name()]:
			if n > 0 {
				desc := "guest memory via " + callee.Name()
				out[0][tokKey{kind: tokSrc, src: desc}] = origin{pos: call.Pos(), desc: desc}
			}
		case sum != nil && len(sum.rets) == n:
			for i, rset := range sum.rets {
				out[i].join(s.mapCalleeToks(call, rset))
			}
		default:
			joinEach(out, s.passThrough(call))
		}
	}
	if len(callees) == 0 {
		joinEach(out, s.passThrough(call))
	}
	return out
}

// passThrough is the model for functions without a body in the program
// (stdlib): taint in, taint out.
func (s *fnSummary) passThrough(call *ast.CallExpr) tokSet {
	out := make(tokSet)
	recv, _ := boundExprs(s.info, call, -1)
	for _, x := range append(recv, call.Args...) {
		out.join(s.eval(x))
	}
	return out
}

// evalBound is the taint of what a call binds to the callee's receiver
// (param -1) or parameter param (boundExprs).
func (s *fnSummary) evalBound(call *ast.CallExpr, param int) tokSet {
	exprs, _ := boundExprs(s.info, call, param)
	out := make(tokSet)
	for _, x := range exprs {
		out.join(s.eval(x))
	}
	return out
}

// --- flows and sinks ----------------------------------------------------

// collectFlows records, against the stabilized environment: sink hits,
// taint entering call arguments, taint stored into fields, and taint
// reaching return values.
func (s *fnSummary) collectFlows() {
	info := s.info
	s.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array:
				s.checkSink(n.Index, n.Pos(), "slice/array index")
			case *types.Pointer: // *[N]T indexing
				s.checkSink(n.Index, n.Pos(), "slice/array index")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil {
					s.checkSink(bound, n.Pos(), "slice bound")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.SHL || n.Op == token.SHR {
				s.checkSink(n.Y, n.Pos(), "shift amount")
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
				s.checkSink(n.Rhs[0], n.Pos(), "shift amount")
			}
			s.recordFieldWrites(n)
		case *ast.CompositeLit:
			s.recordLitFieldWrites(n)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
					for _, a := range n.Args[1:] {
						s.checkSink(a, n.Pos(), "make length")
					}
				}
			}
			s.recordCallFlows(n)
		case *ast.ReturnStmt:
			for i, set := range s.returned(s, n, len(s.rets)) {
				s.rets[i].join(set)
			}
		}
		return true
	})
}

// checkSink records a sink hit unless the value is constant or
// sanitized.
func (s *fnSummary) checkSink(e ast.Expr, pos token.Pos, what string) {
	if isConstExpr(s.info, e) {
		return
	}
	toks := s.eval(e)
	if len(toks) == 0 {
		return
	}
	if s.isSanitized(e, pos) {
		return
	}
	s.sinks = append(s.sinks, sinkRec{pos: pos, what: what, toks: toks.clone()})
}

// isSanitized reports whether a sink value passed a bounds check (a
// root of the expression appears under a comparison or switch in this
// function) or carries a `// sanitized:` annotation on its line or the
// line above.
func (s *fnSummary) isSanitized(e ast.Expr, pos token.Pos) bool {
	roots := make(map[string]bool)
	addRootStrings(s.info, roots, e)
	for r := range roots {
		if s.checked[r] {
			return true
		}
	}
	file := fileOf(s.node.Pkg, pos)
	if file == nil {
		return false
	}
	lines := s.t.sanitizedLinesFor(file)
	line := s.t.pass.Prog.Fset.Position(pos).Line
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
func (s *fnSummary) recordFieldWrites(n *ast.AssignStmt) {
	info := s.info
	for i, set := range s.values(s, len(n.Lhs), n.Rhs) {
		lhs := n.Lhs[i]
		if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
			// Compound assignment keeps existing taint too.
			set = set.clone()
			set.join(s.eval(lhs))
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
		if s.isSanitized(n.Rhs[min(i, len(n.Rhs)-1)], n.Pos()) {
			continue
		}
		s.fields = append(s.fields, fieldFlow{field: f, toks: set.clone(), pos: n.Pos()})
	}
}

// recordLitFieldWrites captures taint stored into fields via composite
// literals (DiskRequest{LBA: guestLBA, ...}).
func (s *fnSummary) recordLitFieldWrites(n *ast.CompositeLit) {
	tv, ok := s.info.Types[n]
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
		set := s.eval(kv.Value)
		if len(set) == 0 {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == key.Name && isProgramField(f) {
				if !s.isSanitized(kv.Value, kv.Pos()) {
					s.fields = append(s.fields, fieldFlow{field: f, toks: set.clone(), pos: kv.Pos()})
				}
				break
			}
		}
	}
}

// recordCallFlows captures taint entering callee parameters, for the
// interprocedural fixpoint: each parameter takes the unsanitized taint
// of every argument the call binds to it (boundExprs).
func (s *fnSummary) recordCallFlows(call *ast.CallExpr) {
	for _, callee := range s.t.cg.CalleesAt(call) {
		if s.t.cg.Node(callee) == nil {
			continue // no body: nothing to propagate into
		}
		// Receiver taint is deliberately not propagated as a fact: an
		// object is "tainted" only through specific fields, and those
		// travel via the field-based channel.
		for i := range callee.Type().(*types.Signature).Params().Len() {
			set := make(tokSet)
			exprs, _ := boundExprs(s.info, call, i)
			for _, a := range exprs {
				if at := s.eval(a); len(at) > 0 && !s.isSanitized(a, a.Pos()) {
					set.join(at)
				}
			}
			if len(set) > 0 {
				s.args = append(s.args, argFlow{callee: callee, param: i, toks: set, pos: call.Pos()})
			}
		}
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

// solveFacts pushes taint facts through call edges and struct fields
// until none is added. Every reachable parameter and field gets its
// fact, however far from the source; only its rendered path stops
// growing at maxPath steps (appendPath).
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
					t.factFns[key] = &taintFact{path: appendPath(base.path,
						fmt.Sprintf("passed to parameter %s of %s", paramName(af.callee, af.param), FuncDisplayName(af.callee)))}
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
					t.factFns[key] = &taintFact{path: appendPath(base.path,
						fmt.Sprintf("stored into field %s (in %s)", fieldQualName(ff.field), FuncDisplayName(node.Fn)))}
					changed = true
				}
			}
		}
	}
}

// paramName names parameter idx of fn for path rendering.
func paramName(fn *types.Func, idx int) string {
	if name := fn.Type().(*types.Signature).Params().At(idx).Name(); name != "" {
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
