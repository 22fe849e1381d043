// Command nova-vet runs the NOVA invariant analyzers over the
// repository and fails on any finding. There is no baseline: findings
// get fixed, not banked. Usage:
//
//	nova-vet ./...               # the CI / pre-commit gate
//	nova-vet -list               # describe the analyzers
//	nova-vet -json ./...         # machine-readable findings + timings
//	nova-vet -run capflow,taint ./... # iterate on an analyzer subset
//
// Exit codes form a contract for CI and tooling: 0 means the tree is
// clean, 1 means findings were reported, 2 means the suite itself could
// not run (load or type-check error, bad usage).
//
// The analyzers (internal/analysis) enforce what the compiler cannot:
// determinism of the cycle-accounted simulation, the hypercall
// capability-validation discipline, cycle accounting on mutating entry
// points, panic-freedom of shared kernel/device paths, exhaustive
// dispatch over VM-exit style enums, the guest-taint trust boundary
// (no guest-controlled value reaching an index, length, shift or
// physical address unchecked), and machine-state isolation:
// package-level vars must be init-only or audited (globalstate), and
// concurrency primitives are banned outside the // epoch-barrier: gate
// (concurrency).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nova/internal/analysis"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is the -json document. Timings gives each analyzer's
// wall-clock share of the run so CI can track which check is eating the
// budget.
type jsonReport struct {
	Findings []jsonFinding     `json:"findings"`
	Timings  []analysis.Timing `json:"timings"`
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	runNames := flag.String("run", "", "comma-separated analyzer subset to run (default: the full suite)")
	flag.Parse()

	if *list {
		for _, e := range analysis.DefaultSuite() {
			scope := "all packages"
			if e.Paths != nil {
				scope = fmt.Sprint(e.Paths)
			}
			fmt.Printf("%-12s %s\n%14s scope: %s\n", e.Analyzer.Name, e.Analyzer.Doc, "", scope)
		}
		return
	}

	root, err := findRepoRoot()
	if err != nil {
		fatal(err)
	}

	// Arguments are accepted for familiarity ("./..."), but the suite's
	// per-analyzer package policy decides what each check covers; any
	// argument other than the full tree is rejected rather than
	// silently narrowing the gate.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fatal(fmt.Errorf("nova-vet checks the whole repository; run it as: nova-vet ./... (got %q)", arg))
		}
	}

	// -run narrows the suite for iteration on one analyzer. It is a
	// development convenience, not a gate configuration.
	entries := analysis.DefaultSuite()
	if *runNames != "" {
		var err error
		entries, err = analysis.SelectEntries(strings.Split(*runNames, ","))
		if err != nil {
			fatal(err)
		}
	}

	diags, timings, err := analysis.RunEntries(root, entries)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		report := jsonReport{Findings: []jsonFinding{}, Timings: timings}
		for _, d := range diags {
			file := d.Pos.Filename
			if r, err := filepath.Rel(root, file); err == nil {
				file = r
			}
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     filepath.ToSlash(file),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}

	if len(diags) > 0 {
		for _, d := range diags {
			rel := d
			if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
		fmt.Fprintf(os.Stderr, "nova-vet: %d finding(s); fix them\n", len(diags))
		os.Exit(1)
	}
	fmt.Printf("nova-vet: ok (%d analyzer(s))\n", len(entries))
}

// findRepoRoot walks up from the working directory to the module root.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("nova-vet: no go.mod above %s (run from inside the repository)", dir)
		}
		dir = parent
	}
}

// fatal reports a suite failure (load error, bad usage): exit code 2,
// distinct from exit 1 (findings) per the documented contract.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
