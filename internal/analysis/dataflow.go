package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the dataflow skeleton under nova-vet's three
// interprocedural engines: write effects (effects.go, behind globalstate
// and capflow's write mapping), taint (taint.go) and capflow
// (capflow.go). Each engine keeps its lattice: the value it tracks per
// variable, an expression evaluator and its collect and report phases.
// The plumbing around them is written once, here:
//
//   - call binding (boundExprs): which caller expressions a callee's
//     receiver or parameter i stands for;
//   - parameter seeding (newFrame): the receiver is parameter -1, and
//     unnamed parameters are counted;
//   - assignment propagation (frame.propagate): one walker over
//     assignments, var declarations and range statements that expands a
//     single multi-value right-hand side per result position, run to a
//     local fixpoint; return statements expand the same way
//     (frame.returned);
//   - the whole-program fixpoint (solve): round-robin over
//     CallGraph.Ordered until no summary's signature moves.
//
// Both fixpoints are capped. One still moving at its cap is an error,
// which the program records (Program.noteFixpoint) and the suite runner
// returns as a load error: summaries still moving may miss findings.

// maxLocalPasses caps the assignment walker's local fixpoint. On the
// repository no function needs more than three passes, the last of
// which changes nothing.
const maxLocalPasses = 10

// fixCaps bounds an engine's two fixpoints.
type fixCaps struct {
	rounds int // whole-program rounds (solve)
	passes int // walker passes per function (frame.propagate)
}

// lattice is an engine's side of the assignment walker for one function.
type lattice[V any] interface {
	// eval is the value of a single-valued expression.
	eval(x ast.Expr) V
	// callResults is the value of each of a call's n results.
	callResults(call *ast.CallExpr, n int) []V
	// bind merges v into an assignment target and reports whether the
	// environment changed.
	bind(lhs ast.Expr, v V) bool
	// rangeValues is what the key and the value of `range x` hold.
	rangeValues(x ast.Expr) (key, val V)
}

// joiner is a lattice value that merges another into itself.
type joiner[V any] interface {
	join(other V) bool
}

// joinEach merges v into every element of out.
func joinEach[V joiner[V]](out []V, v V) {
	for _, o := range out {
		o.join(v)
	}
}

// frame is the engine-independent half of one function's analysis: its
// syntax, its receiver and parameters, and the environment that maps
// each variable to its value.
type frame[V any] struct {
	node   *FuncNode
	info   *types.Info
	env    map[types.Object]V
	recv   *types.Var   // nil for a function or an unnamed receiver
	params []*types.Var // by parameter index; nil for an unnamed one
	// skipLits leaves function literals out of the walk; otherwise
	// their bodies count as the enclosing function's.
	skipLits bool
}

// newFrame builds node's frame. If seed is not nil, the receiver starts
// as seed(-1) and each named parameter i as seed(i).
func newFrame[V any](node *FuncNode, seed func(param int) V) frame[V] {
	fr := frame[V]{node: node, info: node.Pkg.Info, env: make(map[types.Object]V)}
	fd := node.Decl
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		fr.recv, _ = fr.info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			fr.params = append(fr.params, nil)
		}
		for _, name := range field.Names {
			v, _ := fr.info.Defs[name].(*types.Var)
			fr.params = append(fr.params, v)
		}
	}
	if seed != nil {
		if fr.recv != nil {
			fr.env[fr.recv] = seed(-1)
		}
		for i, p := range fr.params {
			if p != nil {
				fr.env[p] = seed(i)
			}
		}
	}
	return fr
}

// inspect walks the function body.
func (fr *frame[V]) inspect(visit func(ast.Node) bool) {
	ast.Inspect(fr.node.Decl.Body, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit && fr.skipLits {
			return false
		}
		return visit(n)
	})
}

// target resolves an assignment target to the variable it is rooted
// at: x, x.f, x[i], *x and (x) all land in x, and chained reports a
// target below the variable itself. Through a field selector only if
// fields; obj is nil for `_` and for a target rooted elsewhere.
func (fr *frame[V]) target(lhs ast.Expr, fields bool) (obj types.Object, chained bool) {
	for {
		switch x := lhs.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil, false
			}
			return fr.info.ObjectOf(x), chained
		case *ast.SelectorExpr:
			if !fields {
				return nil, false
			}
			lhs, chained = x.X, true
		case *ast.IndexExpr:
			lhs, chained = x.X, true
		case *ast.StarExpr:
			lhs, chained = x.X, true
		case *ast.ParenExpr:
			lhs = x.X
		default:
			return nil, false
		}
	}
}

// propagate runs the assignment walker to a local fixpoint, for at most
// passes (>= 1) passes. It fails, naming the function, if the last pass
// allowed still changed the environment.
func (fr *frame[V]) propagate(l lattice[V], passes int) error {
	for pass := 0; pass < passes; pass++ {
		if !fr.assignOnce(l) {
			return nil
		}
	}
	return fmt.Errorf("analysis: local propagation in %s did not converge in %d pass(es)", fr.node.Fn.FullName(), passes)
}

// assignOnce is one pass of the walker; it reports whether the
// environment changed.
func (fr *frame[V]) assignOnce(l lattice[V]) bool {
	changed := false
	bind := func(lhs ast.Expr, v V) {
		if l.bind(lhs, v) {
			changed = true
		}
	}
	fr.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, v := range fr.values(l, len(n.Lhs), n.Rhs) {
				bind(n.Lhs[i], v)
			}
		case *ast.ValueSpec:
			for i, v := range fr.values(l, len(n.Names), n.Values) {
				bind(n.Names[i], v)
			}
		case *ast.RangeStmt:
			key, val := l.rangeValues(n.X)
			if n.Key != nil {
				bind(n.Key, key)
			}
			if n.Value != nil {
				bind(n.Value, val)
			}
		}
		return true
	})
	return changed
}

// values is what each of n targets receives from rhs: rhs[i], or, from
// a single multi-value expression, its value at result position i.
func (fr *frame[V]) values(l lattice[V], n int, rhs []ast.Expr) []V {
	if len(rhs) == 1 && n > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			return l.callResults(call, n)
		}
		// v, ok := m[k], x.(T) or <-ch: the value slot holds the
		// operand's value, ok holds nothing.
		out := make([]V, n)
		out[0] = l.eval(rhs[0])
		return out
	}
	out := make([]V, n)
	for i := range out {
		if i < len(rhs) {
			out[i] = l.eval(rhs[i])
		}
	}
	return out
}

// returned is what each of the function's n results receives from ret:
// its operands, a single multi-value one expanded per result position,
// or, for a bare return, the named results' values. It is empty for a
// return in a function literal whose result count differs.
func (fr *frame[V]) returned(l lattice[V], ret *ast.ReturnStmt, n int) []V {
	if len(ret.Results) > 0 {
		if len(ret.Results) != n && len(ret.Results) != 1 {
			return nil
		}
		return fr.values(l, n, ret.Results)
	}
	var out []V
	if results := fr.node.Decl.Type.Results; results != nil {
		for _, field := range results.List {
			if len(field.Names) == 0 {
				out = append(out, *new(V))
			}
			for _, name := range field.Names {
				out = append(out, fr.env[fr.info.Defs[name]])
			}
		}
	}
	return out
}

// numResults is the number of results a call returns.
func numResults(info *types.Info, call *ast.CallExpr) int {
	switch t := info.TypeOf(call).(type) {
	case nil:
		return 0
	case *types.Tuple:
		return t.Len()
	}
	return 1
}

// boundExprs is the caller expressions a call binds to the callee's
// receiver (param -1) or parameter param: the receiver expression;
// every trailing argument of an implicit variadic tail; the one
// argument of f(g()) for each parameter; otherwise argument param.
// addr reports a pointer method called on a value: x.M() is (&x).M(),
// so the receiver is x's own storage.
func boundExprs(info *types.Info, call *ast.CallExpr, param int) (exprs []ast.Expr, addr bool) {
	if param < 0 {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.MethodVal {
			return nil, false
		}
		_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
		_, ptrX := s.Recv().Underlying().(*types.Pointer)
		return []ast.Expr{sel.X}, ptrRecv && !ptrX
	}
	args := call.Args
	switch _, tail := implicitVariadicElem(info, call, param); {
	case tail:
		return args[min(param, len(args)):], false
	case param < len(args):
		return args[param : param+1], false
	case len(args) > 0:
		return args[len(args)-1:], false
	}
	return nil, false
}

// implicitVariadicElem reports whether argument (or parameter) i of the
// call falls in the callee's variadic slice and the call has no `...`,
// and returns the slice's element type. Such a slice is fresh at the
// call.
func implicitVariadicElem(info *types.Info, call *ast.CallExpr, i int) (types.Type, bool) {
	sig, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() || i < sig.Params().Len()-1 {
		return nil, false
	}
	return sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem(), true
}

// summary is one function's result of an engine's whole-program
// fixpoint.
type summary interface {
	// signature renders the part of the summary other functions'
	// analyses read; the fixpoint runs until no signature moves.
	signature() string
}

// solve is the whole-program fixpoint: round-robin over
// CallGraph.Ordered, it stores analyze(node) for every function, each
// computed against the callee summaries stored so far, until a round
// moves no signature, for at most maxRounds (>= 1) rounds. A function
// none of whose callees' summaries moved since its last analysis is
// not analyzed again: its summary would not change. solve returns
// analyze's first error, and fails, naming a function whose summary
// moved, if the last round allowed still moved one. The program
// records the rounds it ran.
func solve[S summary](prog *Program, what string, maxRounds int, sums map[*types.Func]S, analyze func(*FuncNode) (S, error)) error {
	step := 0
	analyzed := make(map[*types.Func]int) // the step of each function's last analysis
	movedAt := make(map[*types.Func]int)  // the step its summary last moved
	stale := func(node *FuncNode) bool {
		for _, e := range node.Out {
			if e.Site != nil && movedAt[e.Callee] > analyzed[node.Fn] {
				return true
			}
		}
		return false
	}
	var moved []*types.Func
	for round := 1; round <= maxRounds; round++ {
		moved = moved[:0]
		for _, node := range prog.CallGraph().Ordered {
			if round > 1 && !stale(node) {
				continue
			}
			step++
			analyzed[node.Fn] = step
			old, had := "", false
			if prev, ok := sums[node.Fn]; ok {
				old, had = prev.signature(), true
			}
			s, err := analyze(node)
			if err != nil {
				return err
			}
			sums[node.Fn] = s
			switch sig := s.signature(); {
			case sig != old:
				moved = append(moved, node.Fn)
				fallthrough
			case !had:
				// A first summary makes its callers stale even when
				// empty: those analyzed before it modelled the call as
				// one without a summary.
				step++
				movedAt[node.Fn] = step
			}
		}
		if len(moved) == 0 {
			prog.fixRuns = append(prog.fixRuns, fixRun{what, round, maxRounds})
			return nil
		}
	}
	return fmt.Errorf("analysis: %s did not converge in %d round(s): the last moved the summary of %s and %d other(s)",
		what, maxRounds, moved[0].FullName(), len(moved)-1)
}

// maxPath caps a rendered interprocedural path. Only the rendering is
// cut: a fact further away is still kept, under its first steps.
const maxPath = 12

// appendPath extends a path by one step, up to maxPath steps.
func appendPath(path []string, step string) []string {
	if len(path) >= maxPath {
		return path
	}
	return append(append([]string{}, path...), step)
}
