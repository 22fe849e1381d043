package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Chargecheck enforces cycle accounting: an exported kernel or
// device-model entry point that mutates simulated platform state must
// charge virtual time for the work, or the benchmarks silently measure
// a hot path as free. The check is a reachability heuristic over the
// whole program's static call graph:
//
//   - charge sinks are (*hw.Clock).Charge and Kernel.charge /
//     Kernel.ChargeUser (matched by receiver-type and method name, so
//     fixture packages can model them);
//   - an entry point is an exported pointer-receiver method in a target
//     package whose body mutates state — assigns through the receiver,
//     deletes from a receiver-reachable map, or calls a known platform
//     mutator (PortWrite, MMIOWrite, WriteBytes, RaiseIRQ, ...);
//   - the entry point is OK if any statically resolvable call chain
//     from it reaches a charge sink.
//
// Reachability runs over the shared program-wide call graph
// (callgraph.go), which also resolves method values and interface
// calls, so a charge that happens inside a stored handler (EC.Run) or
// behind an interface still counts.
//
// Setup-time entry points that intentionally do unaccounted work (VM
// construction, test plumbing) carry a `// nocharge: <reason>` comment
// on the line directly above the declaration.
//
// Fused execution adds a batching rule: StepBlock retires a fused
// run of instructions with no per-instruction charges, so every
// `.StepBlock(...)` call site must be followed — in a sibling
// statement, before any statement that steps again — by a charge-sink
// call that batch-charges the run. Functions named StepBlock must
// additionally never reach a wall-clock read: the fused loop runs
// between two virtual-time charges and must advance virtual time only.
var Chargecheck = &Analyzer{
	Name: "chargecheck",
	Doc:  "exported mutating entry points must charge cycles via the cost model",
	run:  runChargecheck,
}

// platformMutators are method names that write simulated hardware state
// regardless of which object they are invoked on.
var platformMutators = map[string]bool{
	"PortWrite": true, "MMIOWrite": true, "WriteBytes": true,
	"Write8": true, "Write16": true, "Write32": true,
	"RaiseIRQ": true, "LowerIRQ": true,
}

func runChargecheck(pass *Pass) {
	reach := pass.Prog.CallGraph().ReachesAny(isChargeSink)

	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if isChargeSink(fn) {
					continue // ChargeUser itself is the accounting API
				}
				if hasNochargeComment(pass.Prog, pkg, fd) {
					continue
				}
				if !mutatesState(pkg, fd) {
					continue
				}
				if !reach[fn] {
					pass.Reportf(fd.Pos(), "exported entry point %s.%s mutates simulated state but no call path reaches Clock.Charge/Kernel.charge (cycle-accounting gap)", recvTypeName(fd), fd.Name.Name)
				}
			}
		}
	}

	reportStepBlockSites(pass)
}

// reportStepBlockSites enforces the fused-run batching contract.
// StepBlock retires a whole fused run with no per-instruction charges,
// so every call site must batch-charge the run before stepping again:
// some sibling statement after the one containing the `.StepBlock(...)`
// call — at any enclosing block level — must call a charge sink before
// any statement that steps again. The rule is deliberately syntactic
// rather than reachability-based: the batch charge must stay adjacent
// to the fused call, or a refactor could float it out of the per-run
// loop and the fused path would retire instructions for free.
//
// Functions *named* StepBlock are additionally held to the fused
// loop's purity line: they must not reach a wall-clock read. The loop
// runs between two virtual-time charges; host time leaking in would
// make fused and single-stepped runs diverge.
func reportStepBlockSites(pass *Pass) {
	reachWall := pass.Prog.CallGraph().ReachesAny(isWallClockFunc)
	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fd.Name.Name == "StepBlock" && fd.Recv != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && reachWall[fn] {
						pass.Reportf(fd.Pos(), "%s.StepBlock reaches a wall-clock read (the fused loop must advance virtual time only)", recvTypeName(fd))
					}
				}
				reportUnchargedStepBlocks(pass, pkg, fd)
			}
		}
	}
}

// reportUnchargedStepBlocks flags the StepBlock call sites in fd that
// have no following batch charge.
func reportUnchargedStepBlocks(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	var sites []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isStepCall(call, "StepBlock") {
			sites = append(sites, call)
		}
		return true
	})
	if len(sites) == 0 {
		return
	}
	charged := make(map[*ast.CallExpr]bool)
	markChargedSites(pkg, fd.Body, sites, charged)
	for _, call := range sites {
		if !charged[call] {
			pass.Reportf(call.Pos(), "StepBlock call site has no following batch charge (charge the fused run's cycles before stepping again)")
		}
	}
}

// markChargedSites walks every statement list under root and marks the
// StepBlock sites whose holding statement is followed by a charging
// sibling before any further stepping sibling. A site inside a loop
// body is typically marked by that body's list (charge after the fused
// call, once per iteration) even though the loop statement itself has
// no charging sibling in the enclosing list.
func markChargedSites(pkg *Package, root ast.Node, sites []*ast.CallExpr, charged map[*ast.CallExpr]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, s := range list {
			held := sitesIn(s, sites)
			if len(held) == 0 {
				continue
			}
			for _, rest := range list[i+1:] {
				if stmtCharges(pkg, rest) {
					for _, call := range held {
						charged[call] = true
					}
					break
				}
				if stmtSteps(rest) {
					break
				}
			}
		}
		return true
	})
}

// sitesIn returns the tracked StepBlock calls positioned inside stmt.
func sitesIn(stmt ast.Stmt, sites []*ast.CallExpr) []*ast.CallExpr {
	var held []*ast.CallExpr
	for _, call := range sites {
		if call.Pos() >= stmt.Pos() && call.End() <= stmt.End() {
			held = append(held, call)
		}
	}
	return held
}

// isStepCall reports whether call invokes a method with the given
// name. The stepping API is matched by method name, like the charge
// sinks, so fixture packages can model it.
func isStepCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// stmtCharges reports whether stmt contains a call to a charge sink.
func stmtCharges(pkg *Package, stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && isChargeSink(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

// stmtSteps reports whether stmt contains another stepping call (Step
// or StepBlock).
func stmtSteps(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && (isStepCall(call, "Step") || isStepCall(call, "StepBlock")) {
			found = true
		}
		return !found
	})
	return found
}

// isChargeSink reports whether fn is one of the cycle-accounting
// primitives: Clock.Charge, or Kernel.charge/ChargeUser.
func isChargeSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Clock":
		return fn.Name() == "Charge"
	case "Kernel":
		return fn.Name() == "charge" || fn.Name() == "ChargeUser"
	}
	return false
}

// mutatesState reports whether the method body writes simulated state:
// an assignment or ++/-- rooted at the receiver, a delete() builtin, or
// a call to a known platform mutator.
func mutatesState(pkg *Package, fd *ast.FuncDecl) bool {
	recvObj := receiverVar(pkg, fd)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rootIsVar(pkg, lhs, recvObj) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if rootIsVar(pkg, n.X, recvObj) {
				found = true
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "delete" {
					if _, isBuiltin := pkg.Info.Uses[fun].(*types.Builtin); isBuiltin {
						found = true
					}
				}
			case *ast.SelectorExpr:
				if platformMutators[fun.Sel.Name] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// receiverVar returns the receiver's *types.Var, or nil for an unnamed
// receiver.
func receiverVar(pkg *Package, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := pkg.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// rootIsVar unwraps selector/index/star/paren chains and reports
// whether the base identifier resolves to v.
func rootIsVar(pkg *Package, e ast.Expr, v *types.Var) bool {
	if v == nil {
		return false
	}
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return pkg.Info.Uses[x] == v
		default:
			return false
		}
	}
}

// hasNochargeComment reports whether a `// nocharge:` annotation
// directly precedes the declaration (doc comment or detached comment
// ending on the line above).
func hasNochargeComment(prog *Program, pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "nocharge:") {
		return true
	}
	declLine := prog.Fset.Position(fd.Pos()).Line
	file := prog.Fset.Position(fd.Pos()).Filename
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			end := prog.Fset.Position(cg.End())
			if end.Filename == file && end.Line == declLine-1 && strings.Contains(cg.Text(), "nocharge:") {
				return true
			}
		}
	}
	return false
}
