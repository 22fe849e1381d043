package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Globalstate classifies every package-level variable in the
// sim-critical packages. NOVA's isolation argument requires that all
// mutable per-machine state live in the machine's own object graph; a
// package-level var that is written after initialization silently
// couples every Machine instance in the process. Each var must
// therefore be one of:
//
//   - an init-only table: provably never written after package
//     initialization (writes in init functions, or in helpers reachable
//     only from init, are allowed), including writes through aliases,
//     through slices/maps handed out by accessor functions, and through
//     a callee's receiver or parameter, stdlib callees included — the
//     write-effect summaries (effects.go) track those, and a call that
//     hands a global to such a callee counts as the writer;
//   - a constant in waiting: a never-written var of basic type is
//     flagged so it becomes a const (a const cannot be aliased or
//     assigned, making the isolation argument structural);
//   - audited shared state: annotated `// shared-ok: <why>` on its
//     declaration. Everything else written at runtime is a finding.
//
// SimCriticalPackages is closed under imports
// (TestSimCriticalPackagesClosed), so these are all the program globals
// a machine's step path can reach.
var Globalstate = &Analyzer{
	Name: "globalstate",
	Doc:  "package-level vars in sim-critical packages must be init-only tables, consts, or annotated // shared-ok:",
	run:  runGlobalstate,
}

func runGlobalstate(pass *Pass) {
	eff := pass.Prog.Effects()
	cg := pass.Prog.CallGraph()
	initOnly := initOnlyFuncs(cg)

	// writersOf collects, program-wide, the non-init functions that
	// write each global directly (effects attribute alias writes to the
	// function containing the store, or the call handing the global to
	// a callee that writes through it).
	writersOf := make(map[*types.Var][]*EffectSummary)
	for _, node := range cg.Ordered {
		s := eff.Summary(node.Fn)
		if s == nil {
			continue
		}
		for r, w := range s.Writes {
			if r.Kind != RegionGlobal || !w.Direct || initOnly[node.Fn] {
				continue
			}
			writersOf[r.Global] = append(writersOf[r.Global], s)
		}
	}

	for _, pkg := range pass.Targets {
		for _, v := range packageLevelVars(pkg) {
			writers := writersOf[v]
			sort.Slice(writers, func(i, j int) bool {
				return FuncDisplayName(writers[i].Fn) < FuncDisplayName(writers[j].Fn)
			})
			_, vs := varSpecFor(pkg, v)
			pos := v.Pos()
			if vs != nil {
				pos = vs.Pos()
			}
			if len(writers) > 0 {
				if varAnnotated(pkg, v, markSharedOK) {
					continue
				}
				names := make([]string, 0, len(writers))
				for _, w := range writers {
					names = append(names, FuncDisplayName(w.Fn))
				}
				pass.Reportf(pos, "package-level var %s is written after init (in %s); mutable globals couple every machine in the process — move it into per-machine state or annotate // shared-ok: <why>", v.Name(), strings.Join(dedupStrings(names), ", "))
				continue
			}
			// Never written anywhere (not even init): a basic-typed var
			// is a const in waiting.
			if isBasicKind(v.Type()) && !varAnnotated(pkg, v, markSharedOK) {
				pass.Reportf(pos, "package-level var %s is never written; declare it const so machine isolation is structural", v.Name())
			}
		}
	}
}

// packageLevelVars lists pkg's package-scope variables in declaration
// order.
func packageLevelVars(pkg *Package) []*types.Var {
	var out []*types.Var
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok && name.Name != "_" {
						out = append(out, v)
					}
				}
			}
		}
	}
	return out
}

// initOnlyFuncs computes the functions that can only execute during
// package initialization: the init functions themselves plus unexported
// functions all of whose (transitive) callers are init-only. Exported
// functions are never init-only — the loader does not see test files or
// external callers, so reachability from outside must be assumed.
func initOnlyFuncs(cg *CallGraph) map[*types.Func]bool {
	callers := make(map[*types.Func][]*types.Func)
	for _, node := range cg.Ordered {
		for _, e := range node.Out {
			callers[e.Callee] = append(callers[e.Callee], e.Caller)
		}
	}
	initOnly := make(map[*types.Func]bool)
	for _, node := range cg.Ordered {
		if isInitFunc(node.Fn) {
			initOnly[node.Fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range cg.Ordered {
			fn := node.Fn
			if initOnly[fn] || fn.Exported() || isInitFunc(fn) {
				continue
			}
			cs := callers[fn]
			if len(cs) == 0 {
				continue
			}
			all := true
			for _, c := range cs {
				if !initOnly[c] {
					all = false
					break
				}
			}
			if all {
				initOnly[fn] = true
				changed = true
			}
		}
	}
	return initOnly
}

// isInitFunc reports whether fn is a package init function (not a
// method, named init at package scope).
func isInitFunc(fn *types.Func) bool {
	if fn.Name() != "init" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isBasicKind reports whether t's underlying type is a basic kind
// (numeric, string, bool) — the types Go allows as constants.
func isBasicKind(t types.Type) bool {
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

func dedupStrings(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
