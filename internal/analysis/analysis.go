// Package analysis is nova-vet: a stdlib-only static-analysis framework
// enforcing the invariants NOVA's security and reproducibility argument
// rests on but the Go compiler cannot see.
//
// The paper's trusted computing base argument (§2–3) works only if every
// hypercall validates capabilities before touching kernel objects, and
// this reproduction's evaluation is meaningful only if the simulation is
// deterministic and cycle-accounted (same inputs → identical cycle
// counts). Those are whole-program properties; they rot silently under
// refactoring. Each Analyzer in this package mechanically checks one of
// them over the type-checked source, and a repo-wide test plus the
// cmd/nova-vet driver keep the checks green forever.
//
// The framework deliberately uses only go/parser, go/ast and go/types —
// no golang.org/x/tools — so go.mod stays dependency-free. Loading is
// done from source (load.go); diagnostics are file:line messages. There
// is no suppression list: every finding fails the gate until it is
// fixed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Message, d.Analyzer)
}

// Pass is one analyzer run over a set of target packages within a
// loaded program. Targets are the packages the analyzer reports on; the
// rest of the program is available for whole-program facts (chargecheck
// resolves calls into packages outside its target set).
type Pass struct {
	Prog    *Program
	Targets []*Package

	analyzer *Analyzer
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string // short identifier used in output and -run
	Doc  string // one-line description
	run  func(*Pass)
}

// Run executes the analyzer over the target packages and returns its
// diagnostics sorted by position.
func (a *Analyzer) Run(prog *Program, targets []*Package) []Diagnostic {
	pass := &Pass{Prog: prog, Targets: targets, analyzer: a}
	a.run(pass)
	sortDiags(pass.diags)
	return pass.diags
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
}

// inspect walks every file of every target package.
func (p *Pass) inspect(fn func(pkg *Package, file *ast.File, n ast.Node) bool) {
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool { return fn(pkg, f, n) })
		}
	}
}
