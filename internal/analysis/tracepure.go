package analysis

import (
	"go/ast"
	"go/types"
)

// Tracepure enforces the observability layer's zero-perturbation
// contract (DESIGN.md §observability): recording a trace event or a
// profile sample must be invisible to the simulation. Three rules:
//
//  1. Trace-layer functions — everything declared in a package named
//     "trace", "prof", "stat" or "span", plus methods on the trace types
//     (Tracer, Ring, Histogram, Profiler, Buf, the
//     metric registry's Registry/Metric/Counter/Gauge, and the
//     interpreter's host-side DecodeCache acceleration state)
//     wherever they are declared, and the record path (the
//     probeFuncs) — must not reach a
//     cycle-charge sink (Clock.Charge,
//     Kernel.charge/ChargeUser), a platform mutator (PortWrite,
//     MMIOWrite, ...), or a wall-clock read (time.Now, ...).
//     Reachability runs over the shared whole-program call graph, so
//     indirection doesn't hide a violation.
//
//  2. Emission call sites: arguments of a call to a trace-type method
//     or to the record path must not contain nested calls that charge, mutate platform
//     state, or read the wall clock — `tr.Emit(k.Now(), ...)` is the
//     idiom; `tr.Emit(doWorkAndCharge(), ...)` would make the traced
//     run diverge from the untraced one.
//
//  3. Trace-layer functions must not range over a map: encoded traces
//     and profiles are compared byte-for-byte across runs, and map
//     iteration order would make the encoding nondeterministic. Maps
//     are fine as lookup indexes; emission must walk sorted slices.
//
// The analyzer is self-limiting (it only fires on trace-shaped code),
// so the suite runs it over every package.
var Tracepure = &Analyzer{
	Name: "tracepure",
	Doc:  "trace emission must not charge cycles, mutate guest-visible state, or read the wall clock",
	run:  runTracepure,
}

// traceTypeNames are the receiver types that make up the trace layer,
// matched by name so fixture packages can model them.
var traceTypeNames = map[string]bool{
	"Tracer": true, "Ring": true, "Histogram": true,
	"Profiler": true, "Buf": true,
	// internal/stat's registry layer rides the same contract: recording
	// a metric must never charge, mutate, or read the wall clock.
	"Registry": true, "Metric": true, "Counter": true, "Gauge": true,
	// The decoded-instruction cache is host-side acceleration state:
	// filling or dropping it must be invisible to the simulation,
	// exactly like emitting a trace record.
	"DecodeCache": true,
	// internal/span's request recorder rides the same contract: opening,
	// transitioning, or closing a span must never charge, mutate, or
	// read the wall clock, and its encoding must not range over a map.
	"Recorder": true,
}

// probeFuncs is the record path, by receiver type and method name: the
// kernel's one probe and its Stats fold, and the probes of the VMM and
// the device servers, which count their own Stats and hand the event
// to the kernel. Every probe site calls one of them.
var probeFuncs = map[string]map[string]bool{
	"Kernel":     {"Record": true, "fold": true},
	"VMM":        {"record": true},
	"DiskServer": {"record": true},
	"NetServer":  {"record": true},
}

func runTracepure(pass *Pass) {
	cg := pass.Prog.CallGraph()
	reachCharge := cg.ReachesAny(isChargeSink)
	reachMutate := cg.ReachesAny(isPlatformMutatorFunc)
	reachWall := cg.ReachesAny(isWallClockFunc)

	describe := func(fn *types.Func) string {
		switch {
		case reachCharge[fn] || isChargeSink(fn):
			return "charges simulated cycles"
		case reachMutate[fn] || isPlatformMutatorFunc(fn):
			return "mutates guest-visible platform state"
		case reachWall[fn] || isWallClockFunc(fn):
			return "reads the wall clock"
		}
		return ""
	}

	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || !isTraceLayerFunc(pkg, fn) {
					continue
				}
				if why := describe(fn); why != "" {
					pass.Reportf(fd.Pos(), "trace-layer function %s %s (trace emission must be zero-perturbation)", fd.Name.Name, why)
				}
				reportMapRanges(pass, pkg, fd)
			}

			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isTraceMethodCall(pkg, call) {
					return true
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						inner, ok := m.(*ast.CallExpr)
						if !ok {
							return true
						}
						for _, callee := range cg.CalleesAt(inner) {
							if why := describe(callee); why != "" {
								pass.Reportf(inner.Pos(), "argument of trace emission calls %s, which %s (hoist it before the emission)", callee.Name(), why)
							}
						}
						return true
					})
				}
				return true
			})
		}
	}
}

// reportMapRanges flags rule 3: a `for range` over a map anywhere in
// the body of a trace-layer function.
func reportMapRanges(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); isMap {
			pass.Reportf(rs.Pos(), "trace-layer function %s ranges over a map (iteration order makes the encoding nondeterministic; walk sorted slices)", fd.Name.Name)
		}
		return true
	})
}

// isTraceLayerFunc reports whether fn belongs to the trace layer: any
// function in a package named "trace", "prof", "stat" or "span", a
// method on one of the trace types regardless of package, or the record
// path.
func isTraceLayerFunc(pkg *Package, fn *types.Func) bool {
	switch pkg.Types.Name() {
	case "trace", "prof", "stat", "span":
		return true
	}
	return isTraceMethod(fn)
}

// isTraceMethod reports whether fn is a method on one of the
// traceTypeNames receivers or one of the probeFuncs.
func isTraceMethod(fn *types.Func) bool {
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
	name := named.Obj().Name()
	return traceTypeNames[name] || probeFuncs[name][fn.Name()]
}

// isTraceMethodCall reports whether the call invokes a trace-type method
// or the record path (an emission or metrics-recording site).
func isTraceMethodCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && isTraceMethod(fn)
}

// isPlatformMutatorFunc reports whether fn is a method carrying one of
// the platform-mutator names (the same name set chargecheck uses).
func isPlatformMutatorFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return platformMutators[fn.Name()]
}

// isWallClockFunc reports whether fn is one of the package-level time
// functions that observe host wall-clock time.
func isWallClockFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()]
}
