package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"nova/internal/cap"
)

// Capflow is the interprocedural capability-rights and object-lifetime
// verifier of the hypercall layer. Where capcheck proves every hypercall
// *performs* a validation, capflow proves the validation is the *right*
// one: it tracks each looked-up kernel object through the hypercall's
// dataflow (into callees, through struct fields and containers) and
// checks three rules against the declared operation→rights contract in
// caprights.go:
//
//  1. sufficiency — every operation the hypercall performs on the
//     object downstream (state writes, invocations, retained
//     references) is covered by the rights the lookup demanded;
//  2. least privilege — rights the lookup demanded but no downstream
//     operation exercises are flagged, so the hypercall interface
//     never over-requests authority;
//  3. lifetime — a looked-up (or hypercall-created) object reference
//     may not be stored into state that outlives the hypercall unless
//     the store carries a `// caphold: <why>; teardown=<Func>`
//     annotation whose teardown function is a destruction root
//     (Kernel.DestroyPD, Space/MemSpace/IOSpace Destroy/Revoke) or
//     reachable from one — i.e. some destruction path provably
//     releases the reference.
//
// The analyzer also cross-checks the HypercallRights table in both
// directions (every hypercall has a row; every row corresponds to a
// validation the body performs) and flags direct capability-space
// mutations outside the Kernel/cap layer as hypercall bypasses.
//
// Dataflow model: values are tracked at levels — direct (the object
// itself), capResult (a Capability struct whose .Obj is the object),
// carrier (a struct or slice holding the object), graph (storage merely
// reachable from the object) — and call sites compose per-function flow
// summaries (escapes, invocations, result flows). Call binding,
// assignment propagation and the round-robin summary fixpoint are the
// dataflow skeleton shared with the effects and taint engines
// (dataflow.go); a summary's escapes and invocations are sets, one
// representative path per escape (input, target, store site) and per
// invoked input. State writes are mapped through the shared write-effect
// summaries. Function literals are skipped (closures are not tracked);
// cap-package functions and Space/MemSpace/IOSpace methods record no
// escapes (the mapping database is the revocation-tracked holder of
// capability references, not a lifetime leak).
var Capflow = &Analyzer{
	Name: "capflow",
	Doc:  "hypercalls must exercise exactly the rights they demand and may not retain looked-up objects without an audited teardown",
	run:  runCapflow,
}

// trackLevel orders how directly a value exposes a tracked object.
// Composition takes the minimum: reading a field of a carrier yields at
// most graph-level reachability, never the object itself.
type trackLevel uint8

const (
	lvlNone trackLevel = iota
	// lvlGraph: storage reachable from the object (sm.waiters, ec.VCPU).
	lvlGraph
	// lvlCarrier: a struct/slice/map holding a reference to the object.
	lvlCarrier
	// lvlCapResult: a cap.Capability whose Obj field is the object.
	lvlCapResult
	// lvlDirect: the object reference itself.
	lvlDirect
)

func minLvl(a, b trackLevel) trackLevel {
	if a < b {
		return a
	}
	return b
}

// flowInput identifies a function's receiver (-1) or parameter in a
// flow summary, indexed like the skeleton's parameters (newFrame).
type flowInput int

// capRoot is one tracked origin inside a hypercall frame: a capability
// lookup or an object creation.
type capRoot struct {
	pos       token.Pos
	param     int   // validated param index (caller = 0); -1 selector lookup; -2 creation
	objType   int64 // folded cap.ObjType value; -1 unknown
	need      cap.Rights
	needKnown bool
	creation  bool
	bare      bool // bare Lookup(sel): lifetime rule only, no table row

	ops     []capOp
	escapes []capEscape
	escaped bool
}

// capOp is one operation the hypercall performs on a root's object.
type capOp struct {
	kind opKind
	pos  token.Pos
	path []string // call chain to the op, innermost first; nil = in the hypercall body
}

// capEscape is one store of a root's reference into outliving state.
type capEscape struct {
	pos  token.Pos
	path []string
	dest string
}

// valSet maps tracked origins (*capRoot in hypercall frames, flowInput
// in summary frames) to the level at which a value exposes them.
type valSet map[any]trackLevel

func (vs valSet) add(key any, l trackLevel) bool {
	if l == lvlNone {
		return false
	}
	if cur, ok := vs[key]; ok && cur >= l {
		return false
	}
	vs[key] = l
	return true
}

func (vs valSet) join(other valSet) bool {
	changed := false
	for k, l := range other {
		if vs.add(k, l) {
			changed = true
		}
	}
	return changed
}

// flow summaries -----------------------------------------------------------

// escKey is one escape in a flow summary: input `in` is stored, at pos,
// into a package-level variable (global) or into storage reachable
// from input `to`. The store site is part of the key because the
// lifetime rule reads the caphold annotation there.
type escKey struct {
	in     flowInput
	global bool
	to     flowInput
	pos    token.Pos
}

// flowEsc is an escape with the call chain of its representative path.
type flowEsc struct {
	escKey
	path []string
}

// flowInv: the function calls through input `in` (method or func field).
type flowInv struct {
	in   flowInput
	pos  token.Pos
	path []string
}

// flowSummary is the capflow-side per-function summary, complementing
// the write-effect summary: where may inputs escape to, which inputs
// are invoked through, and which inputs flow into each result. Escapes
// and invocations are sets, each entry with one representative path,
// as the effects engine keeps one WriteEffect per region: an escape per
// (input, target, store site), an invocation per input.
type flowSummary struct {
	escapes []flowEsc
	invokes []flowInv
	results []map[flowInput]trackLevel
}

func (s *flowSummary) addEscape(e flowEsc) {
	for _, have := range s.escapes {
		if have.escKey == e.escKey {
			return
		}
	}
	s.escapes = append(s.escapes, e)
}

func (s *flowSummary) addInvoke(v flowInv) {
	for _, have := range s.invokes {
		if have.in == v.in {
			return
		}
	}
	s.invokes = append(s.invokes, v)
}

// signature renders the escapes, invocations and result flows for the
// summary fixpoint.
func (s *flowSummary) signature() string {
	var parts []string
	for _, e := range s.escapes {
		parts = append(parts, fmt.Sprintf("e%+v", e.escKey))
	}
	for _, v := range s.invokes {
		parts = append(parts, fmt.Sprintf("i%d", v.in))
	}
	for i, res := range s.results {
		for in, l := range res {
			parts = append(parts, fmt.Sprintf("r%d:%d=%d", i, in, l))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// chainSuffix renders an innermost-first call chain outermost-first for
// diagnostics. Empty for operations in the hypercall body itself.
func chainSuffix(path []string) string {
	if len(path) == 0 {
		return ""
	}
	rev := make([]string, len(path))
	for i, p := range path {
		rev[len(path)-1-i] = p
	}
	return " (via " + strings.Join(rev, " -> ") + ")"
}

// analyzer state -----------------------------------------------------------

type capflowState struct {
	prog   *Program
	cg     *CallGraph
	eff    *Effects
	sums   map[*types.Func]*flowSummary
	reach  map[*types.Func]bool // functions reachable from a destruction root
	passes int                  // the walker's local cap
}

// maxFlowRounds caps the flow-summary fixpoint. The repository
// converges in 10 rounds (logged by TestRepoInvariants), the last of
// which changes nothing: result flows climb the interpreter's call
// chains one caller per round.
const maxFlowRounds = 20

func runCapflow(pass *Pass) { runCapflowCapped(pass, fixCaps{maxFlowRounds, maxLocalPasses}) }

// runCapflowCapped runs the analyzer with its fixpoints capped. A
// fixpoint still moving at its cap reports nothing: the program notes
// the failure, and the suite runner returns it as a load error.
func runCapflowCapped(pass *Pass, c fixCaps) {
	st := &capflowState{
		prog:   pass.Prog,
		cg:     pass.Prog.CallGraph(),
		eff:    pass.Prog.Effects(),
		sums:   make(map[*types.Func]*flowSummary),
		passes: c.passes,
	}
	err := solve(pass.Prog, "capflow", c.rounds, st.sums, func(node *FuncNode) (*flowSummary, error) {
		if summaryExempt(node.Fn) {
			return &flowSummary{}, nil
		}
		fr := st.frameFor(node, false)
		if err := fr.run(); err != nil {
			return nil, err
		}
		return fr.sum, nil
	})
	if err != nil {
		pass.Prog.noteFixpoint(err)
		return
	}
	st.computeDestroyReach()
	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !isHypercallMethod(pkg, fd) {
					st.checkDirectMutation(pass, pkg, fd)
				} else if err := st.checkHypercall(pass, pkg, fd); err != nil {
					pass.Prog.noteFixpoint(err)
					return
				}
			}
		}
	}
}

// destruction roots --------------------------------------------------------

// isDestructionRoot reports whether fn anchors a teardown path: the
// domain-destruction hypercall or the space-level revocation primitives
// it drives.
func isDestructionRoot(fn *types.Func) bool {
	switch fn.Name() {
	case "DestroyPD":
		return funcRecvName(fn) == "Kernel"
	case "Destroy", "Revoke":
		switch funcRecvName(fn) {
		case "Space", "MemSpace", "IOSpace":
			return true
		}
	}
	return false
}

func funcRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// computeDestroyReach marks every function reachable from a destruction
// root by forward BFS over the call graph: a valid caphold teardown
// must be one of these, so some destruction path provably releases the
// held reference.
func (st *capflowState) computeDestroyReach() {
	st.reach = make(map[*types.Func]bool)
	var queue []*types.Func
	for fn := range st.cg.Nodes {
		if isDestructionRoot(fn) {
			st.reach[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := st.cg.Nodes[fn]
		if node == nil {
			continue
		}
		for _, e := range node.Out {
			if !st.reach[e.Callee] {
				st.reach[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
}

// teardownValid reports whether a function with the given name exists
// and is a destruction root or reachable from one.
func (st *capflowState) teardownValid(name string) bool {
	for fn := range st.cg.Nodes {
		if fn.Name() == name && (isDestructionRoot(fn) || st.reach[fn]) {
			return true
		}
	}
	return false
}

func (st *capflowState) packageOf(pos token.Pos) *Package {
	for _, pkg := range st.prog.Pkgs {
		if fileOf(pkg, pos) != nil {
			return pkg
		}
	}
	return nil
}

// capholdAt finds a caphold annotation on pos's line (or the line
// above) and parses its `<why>; teardown=<Func>` payload.
func (st *capflowState) capholdAt(pos token.Pos) (why, teardown string, found bool) {
	pkg := st.packageOf(pos)
	if pkg == nil {
		return "", "", false
	}
	f := fileOf(pkg, pos)
	line := st.prog.Fset.Position(pos).Line
	for _, cg := range f.Comments {
		text := cg.Text()
		if !containsMarker(text, markCapHold) {
			continue
		}
		start := st.prog.Fset.Position(cg.Pos()).Line
		end := st.prog.Fset.Position(cg.End()).Line
		if line < start || line > end+1 {
			continue
		}
		rest := text[strings.Index(text, markCapHold)+len(markCapHold):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[:nl]
		}
		parts := strings.Split(rest, ";")
		why = strings.TrimSpace(parts[0])
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if rest, ok := strings.CutPrefix(p, "teardown="); ok {
				teardown = strings.TrimSpace(rest)
			}
		}
		return why, teardown, true
	}
	return "", "", false
}

// per-function summaries ---------------------------------------------------

// summaryExempt: the cap package and the space types ARE the mapping
// database — holding capability references there is the design, tracked
// by delegation trees and released by Revoke/Destroy. Their summaries
// record no escapes (their write effects still count as operations).
func summaryExempt(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Path() == ModulePath+"/internal/cap" {
		return true
	}
	switch funcRecvName(fn) {
	case "Space", "MemSpace", "IOSpace":
		return true
	}
	return false
}

// frames -------------------------------------------------------------------

// flowFrame is one function's analysis: a hypercall frame tracks the
// roots of its lookups and creations, a summary frame the function's
// own inputs. Function literals are skipped: closures are not tracked
// (stores inside them are charged to nothing), which is conservative in
// neither direction but keeps the model small; the kernel stores
// closures only as handlers, never capability refs.
type flowFrame struct {
	frame[valSet]
	st    *capflowState
	hyper bool

	lookups   map[*ast.CallExpr]*capRoot
	creations map[*ast.CompositeLit]*capRoot
	roots     []*capRoot // hypercall mode

	sum *flowSummary // summary mode
}

func (st *capflowState) frameFor(node *FuncNode, hyper bool) *flowFrame {
	fr := &flowFrame{
		st:        st,
		hyper:     hyper,
		lookups:   make(map[*ast.CallExpr]*capRoot),
		creations: make(map[*ast.CompositeLit]*capRoot),
	}
	if hyper {
		fr.frame = newFrame[valSet](node, nil)
	} else {
		fr.frame = newFrame(node, func(i int) valSet { return valSet{flowInput(i): lvlDirect} })
		fr.sum = &flowSummary{}
		if sig, ok := node.Fn.Type().(*types.Signature); ok {
			fr.sum.results = make([]map[flowInput]trackLevel, sig.Results().Len())
			for i := range fr.sum.results {
				fr.sum.results[i] = make(map[flowInput]trackLevel)
			}
		}
	}
	fr.skipLits = true
	return fr
}

// run analyzes the frame: a hypercall's lookups, local propagation to a
// fixpoint, then collection against the stabilized environment.
func (fr *flowFrame) run() error {
	if fr.hyper {
		fr.scanLookups()
	}
	if err := fr.propagate(fr, fr.st.passes); err != nil {
		return err
	}
	fr.collect()
	return nil
}

func (fr *flowFrame) paramIndex(obj types.Object) int {
	for i, p := range fr.params {
		if p != nil && obj == p {
			return i
		}
	}
	return -1
}

// scanLookups finds the hypercall's capability validations: Lookup /
// LookupTyped / LookupObj calls on a Space reached from the calling
// PD's own fields. Each becomes a tracked root.
func (fr *flowFrame) scanLookups() {
	callerVar := fr.params[0]
	fr.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		op := sel.Sel.Name
		if op != "Lookup" && op != "LookupTyped" && op != "LookupObj" {
			return true
		}
		if typeNameOf(fr.info, sel.X) != "Space" {
			return true
		}
		if root, _ := fr.target(sel.X, true); root != callerVar || callerVar == nil {
			return true
		}
		switch op {
		case "LookupObj": // (obj, type, need): validates a parameter by identity
			if len(call.Args) != 3 {
				return true
			}
			id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return true
			}
			obj := fr.info.ObjectOf(id)
			idx := fr.paramIndex(obj)
			if idx < 0 {
				return true
			}
			t, tok := foldInt(fr.info, call.Args[1])
			r, rok := foldInt(fr.info, call.Args[2])
			root := &capRoot{pos: call.Pos(), param: idx, objType: -1, needKnown: tok && rok}
			if tok {
				root.objType = t
			}
			if rok {
				root.need = cap.Rights(r)
			}
			fr.roots = append(fr.roots, root)
			fr.lookups[call] = root
			set, ok := fr.env[obj]
			if !ok {
				set = make(valSet)
				fr.env[obj] = set
			}
			set.add(root, lvlDirect)
		case "LookupTyped": // (sel, type, need): selector-based validation
			if len(call.Args) != 3 {
				return true
			}
			t, tok := foldInt(fr.info, call.Args[1])
			r, rok := foldInt(fr.info, call.Args[2])
			root := &capRoot{pos: call.Pos(), param: -1, objType: -1, needKnown: tok && rok}
			if tok {
				root.objType = t
			}
			if rok {
				root.need = cap.Rights(r)
			}
			fr.roots = append(fr.roots, root)
			fr.lookups[call] = root
		case "Lookup": // (sel): untyped — lifetime rule only
			root := &capRoot{pos: call.Pos(), param: -1, objType: -1, bare: true}
			fr.roots = append(fr.roots, root)
			fr.lookups[call] = root
		}
		return true
	})
}

// creationRoot tracks hypercall-created kernel objects (only the
// lifetime rule applies to them: a fresh object escaping into kernel
// state needs an audited teardown exactly like a looked-up one).
var kernelObjectTypes = map[string]bool{
	"PD": true, "EC": true, "SC": true, "Portal": true, "Semaphore": true,
}

func (fr *flowFrame) creationRoot(lit *ast.CompositeLit) *capRoot {
	if !fr.hyper {
		return nil
	}
	if root, ok := fr.creations[lit]; ok {
		return root
	}
	tv, ok := fr.info.Types[lit]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || !kernelObjectTypes[named.Obj().Name()] {
		fr.creations[lit] = nil
		return nil
	}
	root := &capRoot{pos: lit.Pos(), param: -2, objType: -1, creation: true}
	fr.creations[lit] = root
	fr.roots = append(fr.roots, root)
	return root
}

// value evaluation ---------------------------------------------------------

func (fr *flowFrame) eval(expr ast.Expr) valSet {
	if tv, ok := fr.info.Types[expr]; ok && tv.Type != nil {
		if _, basic := tv.Type.Underlying().(*types.Basic); basic {
			return nil // scalar copy severs tracking
		}
	}
	switch e := expr.(type) {
	case *ast.Ident:
		if set, ok := fr.env[fr.info.ObjectOf(e)]; ok {
			return set
		}
	case *ast.ParenExpr:
		return fr.eval(e.X)
	case *ast.StarExpr:
		return fr.eval(e.X)
	case *ast.UnaryExpr:
		return fr.eval(e.X)
	case *ast.TypeAssertExpr:
		return fr.eval(e.X)
	case *ast.SliceExpr:
		return fr.eval(e.X)
	case *ast.SelectorExpr:
		inner := fr.eval(e.X)
		if len(inner) == 0 {
			return nil
		}
		out := make(valSet)
		for k, l := range inner {
			if l == lvlCapResult && e.Sel.Name == "Obj" {
				out.add(k, lvlDirect) // Capability.Obj IS the object
			} else {
				out.add(k, lvlGraph)
			}
		}
		return out
	case *ast.IndexExpr:
		return elemOf(fr.eval(e.X))
	case *ast.CompositeLit:
		out := make(valSet)
		if root := fr.creationRoot(e); root != nil {
			out.add(root, lvlDirect)
		}
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			for k, l := range fr.eval(v) {
				out.add(k, minLvl(l, lvlCarrier))
			}
		}
		return out
	case *ast.CallExpr:
		return fr.evalCall(e)
	}
	return nil
}

// elemOf tracks an element of a container: an element of a holding
// container carries what it holds, anything else is graph-level.
func elemOf(inner valSet) valSet {
	out := make(valSet)
	for k, l := range inner {
		if l == lvlCarrier {
			out.add(k, lvlCarrier)
		} else {
			out.add(k, lvlGraph)
		}
	}
	return out
}

func (fr *flowFrame) evalCall(call *ast.CallExpr) valSet {
	if tv, ok := fr.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return fr.eval(call.Args[0]) // conversion
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fr.info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				out := make(valSet)
				for _, a := range call.Args {
					out.join(fr.eval(a))
				}
				return out
			}
			return nil
		}
	}
	if res := fr.callResults(call, numResults(fr.info, call)); len(res) > 0 {
		return res[0]
	}
	return nil
}

// callResults tracks each of a call's n results: a lookup's first
// result is its capability, a program callee maps its result flows
// through the call site, and a call with no known callee may return
// anything its arguments or receiver carry.
func (fr *flowFrame) callResults(call *ast.CallExpr, n int) []valSet {
	out := make([]valSet, n)
	for i := range out {
		out[i] = make(valSet)
	}
	if root, ok := fr.lookups[call]; ok {
		if n > 0 {
			out[0].add(root, lvlCapResult) // the error slot is untracked
		}
		return out
	}
	callees := fr.st.cg.CalleesAt(call)
	for _, callee := range callees {
		if sum := fr.st.sums[callee]; sum != nil && len(sum.results) == n {
			for i, res := range sum.results {
				out[i].join(fr.mapResult(call, res))
			}
		}
	}
	if len(callees) == 0 {
		through := make(valSet)
		for _, a := range call.Args {
			for k, l := range fr.eval(a) {
				through.add(k, minLvl(l, lvlCarrier))
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			for k, l := range fr.eval(sel.X) {
				through.add(k, minLvl(l, lvlCarrier))
			}
		}
		joinEach(out, through)
	}
	return out
}

func (fr *flowFrame) mapResult(call *ast.CallExpr, res map[flowInput]trackLevel) valSet {
	out := make(valSet)
	for in, lvl := range res {
		for k, al := range fr.evalBound(call, in) {
			out.add(k, minLvl(al, lvl))
		}
	}
	return out
}

// evalBound tracks what a call binds to the callee's input in
// (boundExprs).
func (fr *flowFrame) evalBound(call *ast.CallExpr, in flowInput) valSet {
	exprs, _ := boundExprs(fr.info, call, int(in))
	out := make(valSet)
	for _, x := range exprs {
		out.join(fr.eval(x))
	}
	return out
}

// propagation --------------------------------------------------------------

// rangeValues: a range value is an element of the ranged-over container.
func (fr *flowFrame) rangeValues(x ast.Expr) (key, val valSet) {
	return nil, elemOf(fr.eval(x))
}

// bind merges a value's tracking into an assignment target. A plain
// local identifier takes the set directly; a store through a local's
// field makes that local a carrier of the stored roots (stashing an EC
// in a local struct keeps the EC tracked when the struct later
// escapes). Stores through the receiver or globals are not bindings —
// they are escapes, handled by collect.
func (fr *flowFrame) bind(lhs ast.Expr, set valSet) bool {
	obj, chained := fr.target(lhs, true)
	if v, ok := obj.(*types.Var); len(set) == 0 || obj == nil || obj == fr.recv || ok && isPackageLevelVar(v) {
		return false
	}
	cur, ok := fr.env[obj]
	if !ok {
		cur = make(valSet)
		fr.env[obj] = cur
	}
	if !chained {
		return cur.join(set)
	}
	capped := make(valSet)
	for k, l := range set {
		capped.add(k, minLvl(l, lvlCarrier))
	}
	return cur.join(capped)
}

// collection ---------------------------------------------------------------

// targetKind classifies where a store lands.
type targetKind uint8

const (
	tgtNone targetKind = iota
	tgtRecv            // the frame's receiver: kernel state in a hypercall
	tgtGlobal
	tgtTracked // hypercall mode: an object the hypercall validated
	tgtParam
	tgtLocal
)

type storeTarget struct {
	kind  targetKind
	param int
}

func (fr *flowFrame) classifyTarget(expr ast.Expr) storeTarget {
	obj, _ := fr.target(expr, true)
	v, isVar := obj.(*types.Var)
	switch {
	case obj == nil:
		return storeTarget{kind: tgtNone}
	case obj == fr.recv:
		return storeTarget{kind: tgtRecv}
	case isVar && isPackageLevelVar(v):
		return storeTarget{kind: tgtGlobal}
	}
	idx := fr.paramIndex(obj)
	if idx >= 0 && !fr.hyper {
		return storeTarget{kind: tgtParam, param: idx}
	}
	for _, l := range fr.env[obj] {
		if l == lvlDirect {
			return storeTarget{kind: tgtTracked}
		}
	}
	if idx >= 0 {
		return storeTarget{kind: tgtParam, param: idx}
	}
	return storeTarget{kind: tgtLocal}
}

func (fr *flowFrame) collect() {
	fr.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for i, rhs := range fr.values(fr, len(n.Lhs), n.Rhs) {
					fr.collectWrite(n.Lhs[i])
					fr.collectEscape(n.Lhs[i], rhs, n.Pos())
				}
			}
		case *ast.IncDecStmt:
			fr.collectWrite(n.X)
		case *ast.CallExpr:
			fr.collectCall(n)
		case *ast.ReturnStmt:
			fr.collectReturn(n)
		}
		return true
	})
}

// collectWrite records a state write through a tracked value: the
// written storage is whatever the chain base reaches (field, element or
// pointee), so direct- and graph-level roots get a write operation;
// carriers do not (writing next to an object is not writing it).
func (fr *flowFrame) collectWrite(lhs ast.Expr) {
	var base ast.Expr
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		base = x.X
	case *ast.IndexExpr:
		base = x.X
	case *ast.StarExpr:
		base = x.X
	default:
		return
	}
	for k, l := range fr.eval(base) {
		if l == lvlDirect || l == lvlGraph {
			fr.onWrite(k, lhs.Pos(), nil)
		}
	}
}

// collectEscape records stores of tracked references (direct, carrier
// or capability level — graph-level reachability is not a retained
// reference) into state that outlives the call.
func (fr *flowFrame) collectEscape(lhs ast.Expr, rhs valSet, pos token.Pos) {
	esc := make(valSet)
	for k, l := range rhs {
		if l >= lvlCarrier {
			esc.add(k, l)
		}
	}
	if len(esc) == 0 {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if v, ok := fr.info.ObjectOf(id).(*types.Var); ok && isPackageLevelVar(v) {
			fr.escapeTo(storeTarget{kind: tgtGlobal}, esc, pos, nil)
		}
		return // plain local assignment: a binding, not an escape
	}
	fr.escapeTo(fr.classifyTarget(lhs), esc, pos, nil)
}

// escapeTo dispatches escaping roots against a classified store target.
// path is the call chain for escapes mapped from callee summaries (nil
// for stores in this frame's own body).
func (fr *flowFrame) escapeTo(tgt storeTarget, roots valSet, pos token.Pos, path []string) {
	key := escKey{pos: pos}
	var dest string
	switch tgt.kind {
	case tgtRecv:
		key.to, dest = -1, "kernel state"
	case tgtGlobal:
		key.global, dest = true, "a package-level variable"
	case tgtParam:
		key.to, dest = flowInput(tgt.param), "caller-visible storage"
	case tgtTracked:
		// Storing a tracked reference into another validated object
		// (ec.SC = sc) is a state write on the stored object, not a
		// lifetime leak: the holder's own teardown governs it.
		for k := range roots {
			fr.onWrite(k, pos, path)
		}
		return
	default:
		return
	}
	if fr.hyper {
		for k := range roots {
			if root, ok := k.(*capRoot); ok {
				root.escapes = append(root.escapes, capEscape{pos: pos, path: path, dest: dest})
			}
		}
		return
	}
	path = appendPath(path, FuncDisplayName(fr.node.Fn))
	for k := range roots {
		if in, ok := k.(flowInput); ok {
			key.in = in
			fr.sum.addEscape(flowEsc{key, path})
		}
	}
}

func (fr *flowFrame) onWrite(key any, pos token.Pos, path []string) {
	if !fr.hyper {
		return // callee write effects flow through the effects engine
	}
	if root, ok := key.(*capRoot); ok {
		root.ops = append(root.ops, capOp{kind: opWrite, pos: pos, path: path})
	}
}

func (fr *flowFrame) onInvoke(key any, pos token.Pos, path []string) {
	if fr.hyper {
		if root, ok := key.(*capRoot); ok {
			root.ops = append(root.ops, capOp{kind: opInvoke, pos: pos, path: path})
		}
		return
	}
	if in, ok := key.(flowInput); ok {
		fr.sum.addInvoke(flowInv{in: in, pos: pos, path: appendPath(path, FuncDisplayName(fr.node.Fn))})
	}
}

func (fr *flowFrame) collectCall(call *ast.CallExpr) {
	if _, ok := fr.lookups[call]; ok {
		return // the validation itself is not an operation
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fr.isInvocation(sel) {
			for k, l := range fr.eval(sel.X) {
				if l == lvlDirect || l == lvlCapResult {
					fr.onInvoke(k, call.Pos(), nil)
				}
			}
		}
	}
	if tv, ok := fr.info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := fr.info.Uses[id].(*types.Builtin); ok {
			return
		}
	}
	for _, callee := range fr.st.cg.CalleesAt(call) {
		if sum := fr.st.sums[callee]; sum != nil {
			for _, esc := range sum.escapes {
				fr.mapEscape(call, esc)
			}
			for _, inv := range sum.invokes {
				for k, l := range fr.evalBound(call, inv.in) {
					if l == lvlDirect {
						fr.onInvoke(k, inv.pos, fr.mappedPath(inv.path))
					}
				}
			}
		}
		if fr.hyper {
			fr.mapWriteEffects(call, callee)
		}
	}
}

// isInvocation reports whether sel is a method call or a call through a
// function-typed field — calling through the object either way.
func (fr *flowFrame) isInvocation(sel *ast.SelectorExpr) bool {
	s, ok := fr.info.Selections[sel]
	if !ok {
		return false
	}
	switch s.Kind() {
	case types.MethodVal:
		return true
	case types.FieldVal:
		_, isFunc := s.Type().Underlying().(*types.Signature)
		return isFunc
	}
	return false
}

// mappedPath extends a callee-side chain with this frame's own name
// when building a summary; hypercall frames keep the chain as-is (the
// hypercall is the diagnostic's subject, not a link).
func (fr *flowFrame) mappedPath(path []string) []string {
	if fr.hyper {
		return path
	}
	return appendPath(path, FuncDisplayName(fr.node.Fn))
}

// mapEscape maps one callee escape through a call site: if a tracked
// reference feeds the escaping input, the store target is resolved in
// this frame (what the call binds to the receiving input) and the
// escape re-classified here.
func (fr *flowFrame) mapEscape(call *ast.CallExpr, esc flowEsc) {
	feeding := make(valSet)
	for k, l := range fr.evalBound(call, esc.in) {
		if l >= lvlCarrier {
			feeding.add(k, l)
		}
	}
	if len(feeding) == 0 {
		return
	}
	path := fr.mappedPath(esc.path)
	if esc.global {
		fr.escapeTo(storeTarget{kind: tgtGlobal}, feeding, esc.pos, path)
		return
	}
	targets, _ := boundExprs(fr.info, call, int(esc.to))
	for _, target := range targets {
		fr.escapeTo(fr.classifyTarget(target), feeding, esc.pos, path)
	}
}

// mapWriteEffects turns the callee's write-effect summary into
// operations on tracked objects: a callee that writes through its
// receiver or a parameter writes whatever object the hypercall passed
// there.
func (fr *flowFrame) mapWriteEffects(call *ast.CallExpr, callee *types.Func) {
	es := fr.st.eff.Summary(callee)
	if es == nil {
		return
	}
	for _, w := range es.Writes {
		in := flowInput(-1) // RegionRecv
		switch w.Region.Kind {
		case RegionRecv:
		case RegionParam:
			if freshTail(fr.info, call, w.Region.Param) {
				continue
			}
			in = flowInput(w.Region.Param)
		default:
			continue
		}
		for k, l := range fr.evalBound(call, in) {
			if l == lvlDirect || l == lvlGraph {
				fr.onWrite(k, w.Pos, w.Path)
			}
		}
	}
}

func (fr *flowFrame) collectReturn(n *ast.ReturnStmt) {
	if fr.hyper {
		return
	}
	for i, set := range fr.returned(fr, n, len(fr.sum.results)) {
		for k, l := range set {
			if in, ok := k.(flowInput); ok {
				if cur, exists := fr.sum.results[i][in]; !exists || l > cur {
					fr.sum.results[i][in] = l
				}
			}
		}
	}
}

// hypercall verification ---------------------------------------------------

// checkHypercall verifies one hypercall against its table row and the
// three rules. It fails if the frame's local propagation does not
// converge.
func (st *capflowState) checkHypercall(pass *Pass, pkg *Package, fd *ast.FuncDecl) error {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	node := st.cg.Node(fn)
	if node == nil {
		return nil
	}
	fr := st.frameFor(node, true)
	if err := fr.run(); err != nil {
		return err
	}

	name := fd.Name.Name
	rows, hasRow := HypercallRights[name]
	if !hasRow {
		pass.Reportf(fd.Name.Pos(), "hypercall Kernel.%s has no entry in the capability-rights table (HypercallRights in caprights.go): declare which capabilities it validates so the interface stays reviewed", name)
	} else {
		st.checkTable(pass, fr, name, rows, fd)
	}
	seen := make(map[string]bool)
	for _, root := range fr.roots {
		for _, esc := range root.escapes {
			st.checkEscape(pass, root, esc, name, seen)
		}
	}
	for _, root := range fr.roots {
		st.checkRights(pass, root, name)
	}
	return nil
}

// checkTable cross-checks the declared rows against the lookups the
// body actually performs, in both directions.
func (st *capflowState) checkTable(pass *Pass, fr *flowFrame, name string, rows []DeclaredLookup, fd *ast.FuncDecl) {
	matched := make([]bool, len(rows))
	for _, root := range fr.roots {
		if root.creation || root.bare || !root.needKnown {
			continue
		}
		found := false
		for i, row := range rows {
			if !matched[i] && row.Param == root.param && int64(row.Type) == root.objType && row.Need == root.need {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			pass.Reportf(root.pos, "hypercall Kernel.%s validates a %s with rights %s, but the capability-rights table declares no such lookup (update HypercallRights alongside the code)", name, objTypeName(root.objType), root.need)
		}
	}
	for i, row := range rows {
		if !matched[i] {
			pass.Reportf(fd.Name.Pos(), "the capability-rights table declares that Kernel.%s validates a %s with rights %s, but the body performs no such lookup (specification/implementation drift)", name, objTypeName(int64(row.Type)), row.Need)
		}
	}
}

// checkEscape enforces the lifetime rule on one escaping reference:
// the store must carry a well-formed caphold annotation whose teardown
// lies on a destruction path; a valid hold becomes an opStore operation
// (and therefore needs control rights at lookup time).
func (st *capflowState) checkEscape(pass *Pass, root *capRoot, esc capEscape, name string, seen map[string]bool) {
	root.escaped = true
	objDesc := "the " + objTypeName(root.objType) + " validated by this lookup"
	if root.creation {
		objDesc = "the kernel object created here"
	} else if root.objType < 0 {
		objDesc = "the object validated by this lookup"
	}
	report := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%d|%s", root.pos, msg)
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(root.pos, "%s", msg)
	}
	why, teardown, found := st.capholdAt(esc.pos)
	if !found {
		report("hypercall Kernel.%s stores %s into %s%s without a caphold annotation (lifetime rule: the kernel must not retain hypercall references past the call unless the hold is audited with `// caphold: <why>; teardown=<Func>`)",
			name, objDesc, esc.dest, chainSuffix(esc.path))
		return
	}
	if why == "" || teardown == "" {
		report("hypercall Kernel.%s stores %s into %s%s under a malformed caphold annotation: the form is `// caphold: <why>; teardown=<Func>` with both parts present",
			name, objDesc, esc.dest, chainSuffix(esc.path))
		return
	}
	if !st.teardownValid(teardown) {
		report("hypercall Kernel.%s stores %s into %s%s under a caphold annotation whose teardown %s is not a destruction root (Kernel.DestroyPD or a space Destroy/Revoke) or reachable from one — no destruction path releases the held reference",
			name, objDesc, esc.dest, chainSuffix(esc.path), teardown)
		return
	}
	root.ops = append(root.ops, capOp{kind: opStore, pos: esc.pos, path: esc.path})
}

// checkRights enforces sufficiency (rule 1) and least privilege
// (rule 2) for one lookup against the operations collected downstream.
func (st *capflowState) checkRights(pass *Pass, root *capRoot, name string) {
	if !root.needKnown {
		return
	}
	ops := root.ops
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].pos != ops[j].pos {
			return ops[i].pos < ops[j].pos
		}
		if ops[i].kind != ops[j].kind {
			return ops[i].kind < ops[j].kind
		}
		return strings.Join(ops[i].path, "/") < strings.Join(ops[j].path, "/")
	})
	for _, op := range ops {
		req := opRequiredRights(op.kind, cap.ObjType(root.objType))
		if req&^root.need != 0 {
			pass.Reportf(root.pos, "hypercall Kernel.%s validates this %s with rights %s, but %s%s requires %s",
				name, objTypeName(root.objType), root.need, op.kind, chainSuffix(op.path), req)
			return // rule 2 is noise once the lookup is known insufficient
		}
	}
	used := cap.Rights(0)
	for _, op := range ops {
		used |= opRequiredRights(op.kind, cap.ObjType(root.objType))
	}
	if root.escaped {
		used |= cap.RightCtrl // any retention exercises control, audited or not
	}
	if unused := root.need &^ used; unused != 0 {
		pass.Reportf(root.pos, "hypercall Kernel.%s requests rights %s on this %s but never exercises %s (least privilege: demand only the rights the downstream operations need)",
			name, root.need, objTypeName(root.objType), unused)
	}
}

// hypercall bypass rule ----------------------------------------------------

// capMutOps are the space mutations that must stay behind the hypercall
// layer (InsertRoot is deliberately absent: it is the boot-time filler).
var capMutOps = map[string]bool{
	"Insert": true, "Delegate": true, "Revoke": true, "Remove": true, "Destroy": true,
}

var spaceTypeNames = map[string]bool{
	"Space": true, "MemSpace": true, "IOSpace": true,
}

// checkDirectMutation flags capability/resource-space mutations outside
// the Kernel and the spaces themselves: user-level components must go
// through hypercalls, where validation and accounting live.
func (st *capflowState) checkDirectMutation(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	switch recvTypeName(fd) {
	case "Kernel", "Space", "MemSpace", "IOSpace":
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !capMutOps[sel.Sel.Name] {
			return true
		}
		tname := typeNameOf(pkg.Info, sel.X)
		if !spaceTypeNames[tname] {
			return true
		}
		pass.Reportf(call.Pos(), "%s calls %s.%s directly — a hypercall-layer bypass: capability and resource spaces may only be mutated through Kernel hypercalls, which validate and account the operation", fd.Name.Name, tname, sel.Sel.Name)
		return true
	})
}

// small helpers ------------------------------------------------------------

// typeNameOf names the (pointer-stripped) named type of an expression.
func typeNameOf(info *types.Info, expr ast.Expr) string {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// foldInt extracts a compile-time integer constant (the type and rights
// arguments of a lookup).
func foldInt(info *types.Info, expr ast.Expr) (int64, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}
