package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the write-effect summary engine: the region/effect
// analysis globalstate (and capflow's write mapping) build on, in the
// same way taint builds on the call graph. It answers, for every
// function in the program, "where can a write performed by (or on
// behalf of) this function land?" over a four-region abstraction:
//
//   - receiver-owned state: anything reachable from the method
//     receiver's object graph (a Kernel writing its scheduler queues, a
//     device model updating its registers);
//   - parameter-owned state: anything reachable from parameter i (a
//     helper filling a caller-provided buffer);
//   - package globals: a named package-level variable, reached either
//     directly or through an alias (a pointer, slice or map handed out
//     by an accessor);
//   - local state: storage allocated inside the function (new, make,
//     composite literals, local variables). Local writes are invisible
//     to callers and are not recorded.
//
// Summaries are interprocedural: a call maps the callee's write regions
// through the call site (callee writes its receiver → the caller's
// receiver expression's region; callee writes parameter j → the
// regions of what the call binds to it; global writes stay global), and
// return values carry the regions they may alias, so a write through an
// accessor result is attributed to the accessor's underlying storage. A
// callee's receiver or parameter write that the call binds to a global
// is the caller's own write: the call site counts as the writer. Call
// binding, alias propagation through assignments and the whole-program
// fixpoint are the dataflow skeleton shared with taint and capflow
// (dataflow.go); this file is the region lattice, its evaluator and the
// effect collection.
//
// The abstraction over-approximates in the conservative direction for
// its consumers: aliases are unioned (a value that may point into the
// receiver or a global is treated as both), every callee without a body
// in the program (stdlib, or a call through a func value) is assumed to
// write through every mutable pointer-like argument and its receiver
// (pointer, slice, map, chan — not interfaces or strings, which would
// drown the analysis in error-wrapping noise), and writes inside
// function literals are charged to the enclosing declaration. Extra
// write regions can only make globalstate report more, never less.

// RegionKind classifies the storage a write may reach.
type RegionKind uint8

// The region lattice. RegionLocal is the bottom: writes there stay
// invisible outside the function.
const (
	RegionLocal RegionKind = iota
	RegionRecv
	RegionParam
	RegionGlobal
)

// Region is one abstract storage location.
type Region struct {
	Kind   RegionKind
	Param  int        // valid for RegionParam
	Global *types.Var // valid for RegionGlobal
}

func (r Region) String() string {
	switch r.Kind {
	case RegionRecv:
		return "receiver"
	case RegionParam:
		return fmt.Sprintf("param#%d", r.Param)
	case RegionGlobal:
		if r.Global != nil {
			return "global " + r.Global.Name()
		}
		return "global"
	}
	return "local"
}

// regionSet is the alias set of a value: the regions its pointed-to
// storage may belong to. Empty means "local/unknown storage only".
type regionSet map[Region]bool

func (rs regionSet) join(other regionSet) bool {
	changed := false
	for r := range other {
		if !rs[r] {
			rs[r] = true
			changed = true
		}
	}
	return changed
}

func (rs regionSet) clone() regionSet {
	out := make(regionSet, len(rs))
	for r := range rs {
		out[r] = true
	}
	return out
}

// sortedRegions orders a region set deterministically for signatures
// and reporting.
func (rs regionSet) sortedRegions() []Region {
	out := make([]Region, 0, len(rs))
	for r := range rs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return regionLess(out[i], out[j]) })
	return out
}

func regionLess(a, b Region) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Param != b.Param {
		return a.Param < b.Param
	}
	if a.Global != b.Global {
		return globalVarKey(a.Global) < globalVarKey(b.Global)
	}
	return false
}

func globalVarKey(v *types.Var) string {
	if v == nil {
		return ""
	}
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	return pkg + "." + v.Name()
}

// WriteEffect is one region a function may write, with a representative
// site and the interprocedural chain that reaches it. Path[0] names the
// function containing the actual store; later entries are the callers
// the effect was mapped through, innermost first.
type WriteEffect struct {
	Region Region
	Pos    token.Pos // the store site (stable across the mapping)
	Path   []string
	// Direct reports whether the store statement, or a call binding a
	// global to a callee that writes through it, is in this function's
	// own body (globalstate classifies writers by this).
	Direct bool
}

// EffectSummary is the per-function result: the write regions and the
// regions each return value may alias.
type EffectSummary struct {
	Fn *types.Func

	// Writes holds one representative effect per written region.
	Writes map[Region]*WriteEffect

	// Rets[i] is the alias set of result i — which storage a caller
	// reaches by writing through the returned value.
	Rets []regionSet

	frame[regionSet]
	e *Effects
}

// WriteRegions lists the written regions in deterministic order.
func (s *EffectSummary) WriteRegions() []Region {
	rs := make(regionSet, len(s.Writes))
	for r := range s.Writes {
		rs[r] = true
	}
	return rs.sortedRegions()
}

// WritesGlobal returns the effect on the given package-level var, if
// any.
func (s *EffectSummary) WritesGlobal(v *types.Var) *WriteEffect {
	return s.Writes[Region{Kind: RegionGlobal, Global: v}]
}

// signature renders the caller-visible part of the summary for fixpoint
// detection.
func (s *EffectSummary) signature() string {
	var parts []string
	for _, r := range s.WriteRegions() {
		parts = append(parts, r.String())
	}
	for i, set := range s.Rets {
		for _, r := range set.sortedRegions() {
			parts = append(parts, fmt.Sprintf("r%d=%s", i, r.String()))
		}
	}
	return strings.Join(parts, "|")
}

// Effects is the program-wide effect-summary table.
type Effects struct {
	cg        *CallGraph
	Summaries map[*types.Func]*EffectSummary
}

// Summary returns fn's effect summary, or nil for functions without a
// body in the program.
func (e *Effects) Summary(fn *types.Func) *EffectSummary { return e.Summaries[fn] }

// Effects returns the program's write-effect summaries, computing them
// on first use (shared across analyzers like the call graph). If a
// fixpoint does not converge, the summaries are those reached so far,
// and the program notes the failure (noteFixpoint), which the suite
// runner turns into a load error.
func (p *Program) Effects() *Effects {
	if p.eff == nil {
		var err error
		p.eff, err = computeEffects(p, fixCaps{maxEffectRounds, maxLocalPasses})
		p.noteFixpoint(err)
	}
	return p.eff
}

// maxEffectRounds caps the effect fixpoint. The repository converges
// in 6 rounds (logged by TestRepoInvariants), the last of which changes
// nothing.
const maxEffectRounds = 12

// computeEffects runs the summary fixpoint (solve) under the given caps.
func computeEffects(prog *Program, c fixCaps) (*Effects, error) {
	e := &Effects{cg: prog.CallGraph(), Summaries: make(map[*types.Func]*EffectSummary)}
	err := solve(prog, "write effects", c.rounds, e.Summaries, func(node *FuncNode) (*EffectSummary, error) {
		return e.analyzeFunc(node, c.passes)
	})
	return e, err
}

// analyzeFunc computes one function's summary against the current round
// of callee summaries: local alias propagation to a fixpoint, then
// effect collection against the stabilized environment.
func (e *Effects) analyzeFunc(node *FuncNode, passes int) (*EffectSummary, error) {
	s := &EffectSummary{
		Fn:     node.Fn,
		Writes: make(map[Region]*WriteEffect),
		frame: newFrame(node, func(i int) regionSet {
			if i < 0 {
				return regionSet{Region{Kind: RegionRecv}: true}
			}
			return regionSet{Region{Kind: RegionParam, Param: i}: true}
		}),
		e: e,
	}
	if sig, ok := node.Fn.Type().(*types.Signature); ok {
		s.Rets = make([]regionSet, sig.Results().Len())
		for i := range s.Rets {
			s.Rets[i] = make(regionSet)
		}
	}
	if err := s.propagate(s, passes); err != nil {
		return nil, err
	}
	s.collectEffects()
	return s, nil
}

// bind merges an alias set into an assignment target. A plain local
// identifier takes the regions directly; a write through a local's
// field/element also smears the stored regions onto the local, so that
// a global pointer stashed in a local struct keeps its global identity
// when later written through (`x.f = globalPtr; x.f.y = 1`).
func (s *EffectSummary) bind(lhs ast.Expr, set regionSet) bool {
	obj, _ := s.target(lhs, true)
	if v, ok := obj.(*types.Var); len(set) == 0 || obj == nil || ok && isPackageLevelVar(v) {
		return false // global targets are write effects, not bindings
	}
	cur, ok := s.env[obj]
	if !ok {
		cur = make(regionSet)
		s.env[obj] = cur
	}
	return cur.join(set)
}

// rangeValues: a range value aliases the ranged-over container.
func (s *EffectSummary) rangeValues(x ast.Expr) (key, val regionSet) {
	return nil, s.eval(x)
}

// eval computes the alias set of an expression under the current
// environment.
func (s *EffectSummary) eval(expr ast.Expr) regionSet {
	info := s.info
	// A value of basic type (number, string, bool) is a copy: holding
	// it cannot reach anyone else's storage, so it severs aliasing. An
	// int looked up from a global table is just an int. Only the
	// address-of operator re-establishes a region for a scalar, and
	// that goes through evalAddr below.
	if tv, ok := info.Types[expr]; ok && tv.Type != nil {
		if _, basic := tv.Type.Underlying().(*types.Basic); basic {
			return regionSet{}
		}
	}
	switch expr := expr.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(expr)
		if v, ok := obj.(*types.Var); ok && isProgramGlobal(v) {
			return regionSet{Region{Kind: RegionGlobal, Global: v}: true}
		}
		if set, ok := s.env[obj]; ok {
			return set
		}
	case *ast.ParenExpr:
		return s.eval(expr.X)
	case *ast.StarExpr:
		return s.eval(expr.X)
	case *ast.UnaryExpr:
		if expr.Op == token.AND {
			return s.evalAddr(expr.X)
		}
		return s.eval(expr.X)
	case *ast.TypeAssertExpr:
		return s.eval(expr.X)
	case *ast.IndexExpr:
		return s.eval(expr.X)
	case *ast.SliceExpr:
		return s.eval(expr.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[expr]; ok && sel.Kind() == types.FieldVal {
			return s.eval(expr.X)
		}
		// Package-qualified reference (pkg.Var) or method value.
		if v, ok := info.Uses[expr.Sel].(*types.Var); ok && isProgramGlobal(v) {
			return regionSet{Region{Kind: RegionGlobal, Global: v}: true}
		}
		return regionSet{}
	case *ast.CallExpr:
		return s.evalCall(expr)
	case *ast.CompositeLit:
		// Fresh storage, but pointers stored in the literal keep their
		// identity: writing through lit.f must still reach what f points
		// to, so the element regions union in.
		out := make(regionSet)
		for _, el := range expr.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out.join(s.eval(kv.Value))
			} else {
				out.join(s.eval(el))
			}
		}
		return out
	case *ast.BinaryExpr:
		// Pointer arithmetic does not exist; only comparisons and
		// string/number math reach here. No aliasing.
		return regionSet{}
	}
	return regionSet{}
}

// evalAddr computes the regions of an expression's own storage slot —
// the meaning of &expr. This is the one place a basic-typed variable
// re-enters the analysis: copying a scalar severs aliasing (see eval),
// but taking its address shares the variable itself.
func (s *EffectSummary) evalAddr(expr ast.Expr) regionSet {
	info := s.info
	switch x := expr.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if v, ok := obj.(*types.Var); ok && isProgramGlobal(v) {
			return regionSet{Region{Kind: RegionGlobal, Global: v}: true}
		}
		if set, ok := s.env[obj]; ok {
			return set
		}
		return regionSet{}
	case *ast.ParenExpr:
		return s.evalAddr(x.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			// &x.f lives inside x's own storage (value base) or inside
			// whatever x points to (pointer base); cover both.
			out := s.evalAddr(x.X).clone()
			out.join(s.eval(x.X))
			return out
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && isProgramGlobal(v) {
			return regionSet{Region{Kind: RegionGlobal, Global: v}: true}
		}
		return regionSet{}
	case *ast.IndexExpr:
		out := s.evalAddr(x.X).clone()
		out.join(s.eval(x.X))
		return out
	case *ast.StarExpr:
		return s.eval(x.X) // &*p is p's pointee
	}
	return s.eval(expr)
}

// evalCall models a call's result aliasing: conversions pass through,
// allocating builtins are fresh, and the results of any other call
// union in (callResults).
func (s *EffectSummary) evalCall(call *ast.CallExpr) regionSet {
	info := s.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return s.eval(call.Args[0]) // conversion
		}
		return regionSet{}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "len", "cap", "delete", "clear", "min", "max", "panic", "print", "println", "close", "copy":
				return regionSet{}
			case "append":
				// append may return the original backing store or a
				// fresh one; assume the original.
				if len(call.Args) > 0 {
					return s.eval(call.Args[0])
				}
				return regionSet{}
			default:
				return regionSet{}
			}
		}
	}
	out := make(regionSet)
	for _, set := range s.callResults(call, numResults(info, call)) {
		out.join(set)
	}
	return out
}

// callResults is the alias set of each of a call's n results: a known
// callee maps its return alias sets through the call site; a callee
// without a summary, or a call with no known callee, conservatively
// passes its arguments through.
func (s *EffectSummary) callResults(call *ast.CallExpr, n int) []regionSet {
	out := make([]regionSet, n)
	for i := range out {
		out[i] = regionSet{}
	}
	callees := s.e.cg.CalleesAt(call)
	for _, callee := range callees {
		if sum := s.e.Summaries[callee]; sum != nil && len(sum.Rets) == n {
			for i, rset := range sum.Rets {
				out[i].join(s.mapCalleeRegions(call, rset))
			}
			continue
		}
		joinEach(out, s.passThroughArgs(call))
	}
	if len(callees) == 0 {
		joinEach(out, s.passThroughArgs(call))
	}
	return out
}

// passThroughArgs is the aliasing model for functions without a body in
// the program: the result may alias any argument (and the receiver).
func (s *EffectSummary) passThroughArgs(call *ast.CallExpr) regionSet {
	out := make(regionSet)
	recv, _ := boundExprs(s.info, call, -1)
	for _, x := range append(recv, call.Args...) {
		out.join(s.eval(x))
	}
	return out
}

// mapCalleeRegions translates a callee-side region set into the
// caller's frame: globals stay, receiver/params resolve to what the
// call binds to them.
func (s *EffectSummary) mapCalleeRegions(call *ast.CallExpr, rs regionSet) regionSet {
	out := make(regionSet)
	for r := range rs {
		switch r.Kind {
		case RegionGlobal:
			out[r] = true
		case RegionRecv:
			out.join(s.evalBound(call, -1))
		case RegionParam:
			out.join(s.evalBound(call, r.Param))
		}
	}
	return out
}

// evalBound evaluates what a call binds to the callee's receiver (param
// -1) or parameter param (boundExprs). A pointer method called on an
// addressable value takes its address, so a scalar-typed receiver keeps
// its storage's identity.
func (s *EffectSummary) evalBound(call *ast.CallExpr, param int) regionSet {
	exprs, addr := boundExprs(s.info, call, param)
	out := make(regionSet)
	for _, x := range exprs {
		if addr {
			out.join(s.evalAddr(x))
		} else {
			out.join(s.eval(x))
		}
	}
	return out
}

// freshTail reports whether parameter param of the callee is an
// implicit variadic slice whose elements are not mutable references.
// The slice is fresh at the call, so a write through it reaches
// nothing the caller passed: a fmt-style `...any` wrapper writes
// nothing its caller passed.
func freshTail(info *types.Info, call *ast.CallExpr, param int) bool {
	elem, tail := implicitVariadicElem(info, call, param)
	return tail && !isMutableRef(elem)
}

// --- effect collection ---------------------------------------------------

// collectEffects records, against the stabilized environment: store
// effects, callee effects mapped through call sites, and return-value
// alias sets.
func (s *EffectSummary) collectEffects() {
	s.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for _, lhs := range n.Lhs {
				s.recordStore(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			s.recordStore(n.X, n.Pos())
		case *ast.CallExpr:
			s.recordCallEffects(n)
		case *ast.ReturnStmt:
			for i, set := range s.returned(s, n, len(s.Rets)) {
				s.Rets[i].join(set)
			}
		}
		return true
	})
}

// recordStore attributes one store statement's target to its regions.
func (s *EffectSummary) recordStore(lhs ast.Expr, pos token.Pos) {
	info := s.info
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && isProgramGlobal(v) {
			s.addDirectWrite(Region{Kind: RegionGlobal, Global: v}, pos)
		}
		// A store to a local variable slot is invisible to callers.
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			s.addWriteSet(s.eval(x.X), pos)
			return
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && isProgramGlobal(v) {
			s.addDirectWrite(Region{Kind: RegionGlobal, Global: v}, pos)
		}
	case *ast.IndexExpr:
		s.addWriteSet(s.eval(x.X), pos)
	case *ast.StarExpr:
		s.addWriteSet(s.eval(x.X), pos)
	}
}

// recordCallEffects maps a call's write effects into this summary:
// mutating builtins, known callee summaries, and the conservative model
// for bodyless functions. A callee's write through its receiver or a
// parameter that this call binds to a program global is recorded as
// this function's own direct write at the call: the call is where the
// global is handed to the writer, and the callee alone cannot know it.
func (s *EffectSummary) recordCallEffects(call *ast.CallExpr) {
	info := s.info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy", "delete", "clear", "append":
				if len(call.Args) > 0 {
					s.addWriteSet(s.eval(call.Args[0]), call.Pos())
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	cg := s.e.cg
	callees := cg.CalleesAt(call)
	bodyless := len(callees) == 0 // a call through a func value
	for _, callee := range callees {
		if cg.Node(callee) == nil {
			bodyless = true // stdlib
			continue
		}
		sum := s.e.Summaries[callee]
		if sum == nil {
			continue // summarized later this round
		}
		for _, w := range sum.Writes {
			param := -1 // RegionRecv
			switch w.Region.Kind {
			case RegionGlobal:
				s.addMappedWrite(w.Region, w)
				continue
			case RegionParam:
				if freshTail(info, call, w.Region.Param) {
					continue
				}
				param = w.Region.Param
			}
			for r := range s.evalBound(call, param) {
				switch r.Kind {
				case RegionGlobal:
					s.addDirectWrite(r, call.Pos())
				case RegionRecv, RegionParam:
					s.addMappedWrite(r, w)
				}
			}
		}
	}
	if bodyless {
		s.recordBodylessCall(call)
	}
}

// recordBodylessCall is the write model for a callee without a body in
// the program: it may write through every mutable pointer-like argument
// and through its receiver.
func (s *EffectSummary) recordBodylessCall(call *ast.CallExpr) {
	info := s.info
	for i, a := range call.Args {
		t := info.TypeOf(a)
		if elem, tail := implicitVariadicElem(info, call, i); tail {
			t = elem
		}
		if t != nil && isMutableRef(t) {
			s.addWriteSet(s.eval(a), call.Pos())
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			// A method may mutate its receiver — unless the receiver
			// value cannot carry storage: interface method calls with
			// no in-program implementation (err.Error()) and methods
			// on scalars are reads as far as this analysis can see.
			switch info.TypeOf(sel.X).Underlying().(type) {
			case *types.Interface, *types.Basic:
			default:
				s.addWriteSet(s.eval(sel.X), call.Pos())
			}
		}
	}
}

func (s *EffectSummary) addWriteSet(rs regionSet, pos token.Pos) {
	for r := range rs {
		if r.Kind == RegionLocal {
			continue
		}
		s.addDirectWrite(r, pos)
	}
}

func (s *EffectSummary) addDirectWrite(r Region, pos token.Pos) {
	// A direct site beats a mapped one as the representative.
	if prev, ok := s.Writes[r]; ok && prev.Direct {
		return
	}
	s.Writes[r] = &WriteEffect{Region: r, Pos: pos, Direct: true,
		Path: []string{FuncDisplayName(s.Fn)}}
}

func (s *EffectSummary) addMappedWrite(r Region, from *WriteEffect) {
	if _, ok := s.Writes[r]; ok {
		return
	}
	s.Writes[r] = &WriteEffect{Region: r, Pos: from.Pos, Path: appendPath(from.Path, FuncDisplayName(s.Fn))}
}

// isPackageLevelVar reports whether v is a package-scope variable (not
// a field, parameter or local).
func isPackageLevelVar(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isProgramGlobal reports whether v is a package-level var declared by
// the program under analysis (the repository or a test fixture).
// Stdlib globals (binary.LittleEndian, os.Stdout) are not regions:
// globalstate governs the program's own globals, and stdlib vars the
// program merely calls methods on would be pure noise.
func isProgramGlobal(v *types.Var) bool {
	if !isPackageLevelVar(v) {
		return false
	}
	path := v.Pkg().Path()
	return path == ModulePath ||
		strings.HasPrefix(path, ModulePath+"/") ||
		strings.HasPrefix(path, "fixture/")
}

// isMutableRef reports whether a value of type t lets its holder write
// someone else's storage: pointers, slices, maps and channels. Strings
// are immutable; interfaces and funcs are excluded deliberately —
// counting every error value handed to fmt/errors as a potential write
// would bury the real findings (the cost is missing a stdlib function
// that type-asserts an interface back to a pointer and mutates it,
// which none of the functions sim-critical code calls do).
func isMutableRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}
