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
// region of argument j; global writes stay global), and return values
// carry the regions they may alias, so a write through an accessor
// result is attributed to the accessor's underlying storage. A callee's
// receiver or parameter write that the call binds to a global is the
// caller's own write: the call site counts as the writer. The whole
// program iterates to a fixpoint, like the taint summaries.
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
	Fn   *types.Func
	Node *FuncNode

	// Writes holds one representative effect per written region.
	Writes map[Region]*WriteEffect

	// Rets[i] is the alias set of result i — which storage a caller
	// reaches by writing through the returned value.
	Rets []regionSet

	env    map[types.Object]regionSet
	recv   *types.Var
	params []*types.Var
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
	prog      *Program
	cg        *CallGraph
	Summaries map[*types.Func]*EffectSummary
	// rounds is how many fixpoint rounds ran, counting the last one,
	// which changed nothing when the fixpoint converged.
	rounds int
}

// Summary returns fn's effect summary, or nil for functions without a
// body in the program.
func (e *Effects) Summary(fn *types.Func) *EffectSummary { return e.Summaries[fn] }

// Effects returns the program's write-effect summaries, computing them
// on first use (shared across analyzers like the call graph). If the
// fixpoint does not converge, the summaries are those of the last
// round, and the program notes the failure (noteFixpoint), which the
// suite runner turns into a load error.
func (p *Program) Effects() *Effects {
	if p.eff == nil {
		var err error
		p.eff, err = computeEffects(p, maxEffectRounds)
		p.noteFixpoint(err)
	}
	return p.eff
}

// maxEffectRounds caps the effect fixpoint. The repository converges
// in 6 rounds (TestEffectsConvergeOnRepo), the last of which changes
// nothing.
const maxEffectRounds = 12

// computeEffects runs the summary fixpoint for at most maxRounds (>= 1)
// rounds. It fails, naming a function whose summary moved, if the last
// round allowed still changed a summary.
func computeEffects(prog *Program, maxRounds int) (*Effects, error) {
	e := &Effects{
		prog:      prog,
		cg:        prog.CallGraph(),
		Summaries: make(map[*types.Func]*EffectSummary),
	}
	var moved []*types.Func
	for e.rounds < maxRounds {
		e.rounds++
		moved = moved[:0]
		for _, node := range e.cg.Ordered {
			old := ""
			if prev, ok := e.Summaries[node.Fn]; ok {
				old = prev.signature()
			}
			s := e.analyzeFunc(node)
			e.Summaries[node.Fn] = s
			if s.signature() != old {
				moved = append(moved, node.Fn)
			}
		}
		if len(moved) == 0 {
			return e, nil
		}
	}
	return e, fmt.Errorf("analysis: write effects did not converge in %d round(s): the last moved the summary of %s and %d other(s)",
		maxRounds, moved[0].FullName(), len(moved)-1)
}

// analyzeFunc computes one function's summary against the current round
// of callee summaries.
func (e *Effects) analyzeFunc(node *FuncNode) *EffectSummary {
	s := &EffectSummary{
		Fn:     node.Fn,
		Node:   node,
		Writes: make(map[Region]*WriteEffect),
		env:    make(map[types.Object]regionSet),
	}
	info := node.Pkg.Info
	fd := node.Decl
	if sig, ok := node.Fn.Type().(*types.Signature); ok {
		s.Rets = make([]regionSet, sig.Results().Len())
		for i := range s.Rets {
			s.Rets[i] = make(regionSet)
		}
	}

	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if v, ok := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
			s.recv = v
			s.env[v] = regionSet{Region{Kind: RegionRecv}: true}
		}
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				s.params = append(s.params, v)
				s.env[v] = regionSet{Region{Kind: RegionParam, Param: idx}: true}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}

	// Local alias propagation to a fixpoint, then effect collection
	// against the stabilized environment.
	for iter := 0; iter < 30; iter++ {
		if !e.propagateOnce(s) {
			break
		}
	}
	e.collectEffects(s)
	return s
}

// propagateOnce runs one pass of alias propagation through assignments;
// reports whether the environment changed.
func (e *Effects) propagateOnce(s *EffectSummary) bool {
	changed := false
	info := s.Node.Pkg.Info
	ast.Inspect(s.Node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			sets := e.assignRHS(s, n)
			for i, lhs := range n.Lhs {
				if e.bindLHS(s, lhs, sets[i]) {
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
					var set regionSet
					if len(vs.Values) == len(vs.Names) {
						set = e.eval(s, vs.Values[i])
					} else if sets := e.evalMulti(s, vs.Values[0], len(vs.Names)); i < len(sets) {
						set = sets[i]
					}
					if obj := info.Defs[name]; obj != nil && len(set) > 0 {
						if e.bindObj(s, obj, set) {
							changed = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				if e.bindLHS(s, n.Value, e.eval(s, n.X)) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// bindLHS merges an alias set into an assignment target. A plain local
// identifier takes the regions directly; a write through a local's
// field/element also smears the stored regions onto the local, so that
// a global pointer stashed in a local struct keeps its global identity
// when later written through (`x.f = globalPtr; x.f.y = 1`).
func (e *Effects) bindLHS(s *EffectSummary, lhs ast.Expr, set regionSet) bool {
	if len(set) == 0 {
		return false
	}
	info := s.Node.Pkg.Info
	e2 := lhs
	for {
		switch x := e2.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil || x.Name == "_" {
				return false
			}
			if v, ok := obj.(*types.Var); ok && isPackageLevelVar(v) {
				return false // global targets are write effects, not bindings
			}
			return e.bindObj(s, obj, set)
		case *ast.SelectorExpr:
			e2 = x.X
		case *ast.IndexExpr:
			e2 = x.X
		case *ast.StarExpr:
			e2 = x.X
		case *ast.ParenExpr:
			e2 = x.X
		default:
			return false
		}
	}
}

func (e *Effects) bindObj(s *EffectSummary, obj types.Object, set regionSet) bool {
	cur, ok := s.env[obj]
	if !ok {
		cur = make(regionSet)
		s.env[obj] = cur
	}
	return cur.join(set)
}

// assignRHS evaluates the right-hand sides, expanding a single
// multi-value expression per result position.
func (e *Effects) assignRHS(s *EffectSummary, n *ast.AssignStmt) []regionSet {
	out := make([]regionSet, len(n.Lhs))
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		return e.evalMulti(s, n.Rhs[0], len(n.Lhs))
	}
	for i := range n.Lhs {
		if i < len(n.Rhs) {
			out[i] = e.eval(s, n.Rhs[i])
		} else {
			out[i] = regionSet{}
		}
	}
	return out
}

// evalMulti evaluates a multi-valued expression into n per-position
// alias sets.
func (e *Effects) evalMulti(s *EffectSummary, expr ast.Expr, n int) []regionSet {
	out := make([]regionSet, n)
	for i := range out {
		out[i] = regionSet{}
	}
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		// v, ok := m[k] / x.(T) / <-ch: the value slot aliases the operand.
		out[0] = e.eval(s, expr)
		return out
	}
	for _, callee := range e.cg.CalleesAt(call) {
		sum := e.Summaries[callee]
		if sum == nil || len(sum.Rets) != n {
			set := e.passThroughArgs(s, call)
			for i := range out {
				out[i].join(set)
			}
			continue
		}
		for i, rset := range sum.Rets {
			out[i].join(e.mapCalleeRegions(s, call, rset))
		}
	}
	if len(e.cg.CalleesAt(call)) == 0 {
		set := e.passThroughArgs(s, call)
		for i := range out {
			out[i].join(set)
		}
	}
	return out
}

// eval computes the alias set of an expression under the current
// environment.
func (e *Effects) eval(s *EffectSummary, expr ast.Expr) regionSet {
	info := s.Node.Pkg.Info
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
		return e.eval(s, expr.X)
	case *ast.StarExpr:
		return e.eval(s, expr.X)
	case *ast.UnaryExpr:
		if expr.Op == token.AND {
			return e.evalAddr(s, expr.X)
		}
		return e.eval(s, expr.X)
	case *ast.TypeAssertExpr:
		return e.eval(s, expr.X)
	case *ast.IndexExpr:
		return e.eval(s, expr.X)
	case *ast.SliceExpr:
		return e.eval(s, expr.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[expr]; ok && sel.Kind() == types.FieldVal {
			return e.eval(s, expr.X)
		}
		// Package-qualified reference (pkg.Var) or method value.
		if v, ok := info.Uses[expr.Sel].(*types.Var); ok && isProgramGlobal(v) {
			return regionSet{Region{Kind: RegionGlobal, Global: v}: true}
		}
		return regionSet{}
	case *ast.CallExpr:
		return e.evalCall(s, expr)
	case *ast.CompositeLit:
		// Fresh storage, but pointers stored in the literal keep their
		// identity: writing through lit.f must still reach what f points
		// to, so the element regions union in.
		out := make(regionSet)
		for _, el := range expr.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out.join(e.eval(s, kv.Value))
			} else {
				out.join(e.eval(s, el))
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
func (e *Effects) evalAddr(s *EffectSummary, expr ast.Expr) regionSet {
	info := s.Node.Pkg.Info
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
		return e.evalAddr(s, x.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			// &x.f lives inside x's own storage (value base) or inside
			// whatever x points to (pointer base); cover both.
			out := e.evalAddr(s, x.X).clone()
			out.join(e.eval(s, x.X))
			return out
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && isProgramGlobal(v) {
			return regionSet{Region{Kind: RegionGlobal, Global: v}: true}
		}
		return regionSet{}
	case *ast.IndexExpr:
		out := e.evalAddr(s, x.X).clone()
		out.join(e.eval(s, x.X))
		return out
	case *ast.StarExpr:
		return e.eval(s, x.X) // &*p is p's pointee
	}
	return e.eval(s, expr)
}

// evalCall models a call's result aliasing: conversions pass through,
// allocating builtins are fresh, known callees map their return alias
// sets through the site, unknown callees conservatively pass their
// arguments through.
func (e *Effects) evalCall(s *EffectSummary, call *ast.CallExpr) regionSet {
	info := s.Node.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return e.eval(s, call.Args[0]) // conversion
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
					return e.eval(s, call.Args[0])
				}
				return regionSet{}
			default:
				return regionSet{}
			}
		}
	}
	callees := e.cg.CalleesAt(call)
	if len(callees) == 0 {
		return e.passThroughArgs(s, call)
	}
	out := make(regionSet)
	for _, callee := range callees {
		sum := e.Summaries[callee]
		if sum == nil {
			out.join(e.passThroughArgs(s, call))
			continue
		}
		for _, rset := range sum.Rets {
			out.join(e.mapCalleeRegions(s, call, rset))
		}
	}
	return out
}

// passThroughArgs is the aliasing model for functions without a body in
// the program: the result may alias any argument (and the receiver).
func (e *Effects) passThroughArgs(s *EffectSummary, call *ast.CallExpr) regionSet {
	out := make(regionSet)
	for _, a := range call.Args {
		out.join(e.eval(s, a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := s.Node.Pkg.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			out.join(e.eval(s, sel.X))
		}
	}
	return out
}

// mapCalleeRegions translates a callee-side region set into the
// caller's frame: globals stay, receiver/params resolve to the call
// site's receiver/argument expressions.
func (e *Effects) mapCalleeRegions(s *EffectSummary, call *ast.CallExpr, rs regionSet) regionSet {
	out := make(regionSet)
	for r := range rs {
		switch r.Kind {
		case RegionGlobal:
			out[r] = true
		case RegionRecv:
			out.join(e.evalCallRecv(s, call))
		case RegionParam:
			out.join(e.evalCallArgRegion(s, call, r.Param))
		}
	}
	return out
}

// evalCallRecv evaluates the receiver a method call binds. A pointer
// method called on an addressable value takes its address (x.M() is
// (&x).M()), so a scalar-typed receiver keeps its storage's identity.
func (e *Effects) evalCallRecv(s *EffectSummary, call *ast.CallExpr) regionSet {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := s.Node.Pkg.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			_, ptrRecv := selInfo.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if _, ptrX := selInfo.Recv().Underlying().(*types.Pointer); ptrRecv && !ptrX {
				return e.evalAddr(s, sel.X)
			}
			return e.eval(s, sel.X)
		}
	}
	return regionSet{}
}

// evalCallArgRegion evaluates the arguments a call binds to the
// callee's parameter param: every trailing argument for an implicit
// variadic tail, and the one argument of f(g()) for each parameter.
func (e *Effects) evalCallArgRegion(s *EffectSummary, call *ast.CallExpr, param int) regionSet {
	args := call.Args
	switch _, tail := implicitVariadicElem(s.Node.Pkg.Info, call, param); {
	case tail:
		args = args[min(param, len(args)):]
	case param < len(args):
		args = args[param : param+1]
	case len(args) > 0:
		args = args[len(args)-1:]
	}
	out := make(regionSet)
	for _, a := range args {
		out.join(e.eval(s, a))
	}
	return out
}

// implicitVariadicElem reports whether argument (or parameter) i of the
// call falls in the callee's variadic slice and the call has no `...`,
// and returns the slice's element type. Such a slice is fresh at the
// call, so a write through it reaches the caller's arguments only
// through elements of a mutable reference type: a fmt-style `...any`
// wrapper writes nothing its caller passed.
func implicitVariadicElem(info *types.Info, call *ast.CallExpr, i int) (types.Type, bool) {
	sig, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() || i < sig.Params().Len()-1 {
		return nil, false
	}
	return sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem(), true
}

// --- effect collection ---------------------------------------------------

// collectEffects records, against the stabilized environment: store
// effects, callee effects mapped through call sites, and return-value
// alias sets.
func (e *Effects) collectEffects(s *EffectSummary) {
	info := s.Node.Pkg.Info
	ast.Inspect(s.Node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for _, lhs := range n.Lhs {
				e.recordStore(s, lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			e.recordStore(s, n.X, n.Pos())
		case *ast.CallExpr:
			e.recordCallEffects(s, n)
		case *ast.ReturnStmt:
			switch {
			case len(n.Results) == len(s.Rets):
				for i, r := range n.Results {
					s.Rets[i].join(e.eval(s, r))
				}
			case len(n.Results) == 1 && len(s.Rets) > 1:
				for i, set := range e.evalMulti(s, n.Results[0], len(s.Rets)) {
					s.Rets[i].join(set)
				}
			case len(n.Results) == 0 && s.Node.Decl.Type.Results != nil:
				i := 0
				for _, field := range s.Node.Decl.Type.Results.List {
					for _, name := range field.Names {
						if set, ok := s.env[info.Defs[name]]; ok && i < len(s.Rets) {
							s.Rets[i].join(set)
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

// recordStore attributes one store statement's target to its regions.
func (e *Effects) recordStore(s *EffectSummary, lhs ast.Expr, pos token.Pos) {
	info := s.Node.Pkg.Info
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && isProgramGlobal(v) {
			e.addDirectWrite(s, Region{Kind: RegionGlobal, Global: v}, pos)
		}
		// A store to a local variable slot is invisible to callers.
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			e.addWriteSet(s, e.eval(s, x.X), pos)
			return
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && isProgramGlobal(v) {
			e.addDirectWrite(s, Region{Kind: RegionGlobal, Global: v}, pos)
		}
	case *ast.IndexExpr:
		e.addWriteSet(s, e.eval(s, x.X), pos)
	case *ast.StarExpr:
		e.addWriteSet(s, e.eval(s, x.X), pos)
	}
}

// recordCallEffects maps a call's write effects into this summary:
// mutating builtins, known callee summaries, and the conservative model
// for bodyless functions. A callee's write through its receiver or a
// parameter that this call binds to a program global is recorded as
// this function's own direct write at the call: the call is where the
// global is handed to the writer, and the callee alone cannot know it.
func (e *Effects) recordCallEffects(s *EffectSummary, call *ast.CallExpr) {
	info := s.Node.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy", "delete", "clear", "append":
				if len(call.Args) > 0 {
					e.addWriteSet(s, e.eval(s, call.Args[0]), call.Pos())
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	callees := e.cg.CalleesAt(call)
	bodyless := len(callees) == 0 // a call through a func value
	for _, callee := range callees {
		if e.cg.Node(callee) == nil {
			bodyless = true // stdlib
			continue
		}
		sum := e.Summaries[callee]
		if sum == nil {
			continue // summarized later this round
		}
		for _, w := range sum.Writes {
			var sites regionSet
			switch w.Region.Kind {
			case RegionGlobal:
				e.addMappedWrite(s, w.Region, w)
				continue
			case RegionRecv:
				sites = e.evalCallRecv(s, call)
			case RegionParam:
				if elem, tail := implicitVariadicElem(info, call, w.Region.Param); tail && !isMutableRef(elem) {
					continue
				}
				sites = e.evalCallArgRegion(s, call, w.Region.Param)
			}
			for r := range sites {
				switch r.Kind {
				case RegionGlobal:
					e.addDirectWrite(s, r, call.Pos())
				case RegionRecv, RegionParam:
					e.addMappedWrite(s, r, w)
				}
			}
		}
	}
	if bodyless {
		e.recordBodylessCall(s, call)
	}
}

// recordBodylessCall is the write model for a callee without a body in
// the program: it may write through every mutable pointer-like argument
// and through its receiver.
func (e *Effects) recordBodylessCall(s *EffectSummary, call *ast.CallExpr) {
	info := s.Node.Pkg.Info
	for i, a := range call.Args {
		t := info.TypeOf(a)
		if elem, tail := implicitVariadicElem(info, call, i); tail {
			t = elem
		}
		if t != nil && isMutableRef(t) {
			e.addWriteSet(s, e.eval(s, a), call.Pos())
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
				e.addWriteSet(s, e.eval(s, sel.X), call.Pos())
			}
		}
	}
}

func (e *Effects) addWriteSet(s *EffectSummary, rs regionSet, pos token.Pos) {
	for r := range rs {
		if r.Kind == RegionLocal {
			continue
		}
		e.addDirectWrite(s, r, pos)
	}
}

func (e *Effects) addDirectWrite(s *EffectSummary, r Region, pos token.Pos) {
	// A direct site beats a mapped one as the representative.
	if prev, ok := s.Writes[r]; ok && prev.Direct {
		return
	}
	s.Writes[r] = &WriteEffect{Region: r, Pos: pos, Direct: true,
		Path: []string{FuncDisplayName(s.Fn)}}
}

const maxEffectPath = 12

func (e *Effects) addMappedWrite(s *EffectSummary, r Region, from *WriteEffect) {
	if _, ok := s.Writes[r]; ok {
		return
	}
	if len(from.Path) >= maxEffectPath {
		return
	}
	s.Writes[r] = &WriteEffect{Region: r, Pos: from.Pos,
		Path: append(append([]string{}, from.Path...), FuncDisplayName(s.Fn))}
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
