package analysis

import (
	"fmt"
	"strings"

	"nova/internal/walltime"
)

// SimCriticalPackages are the packages whose execution produces the
// simulation's observable results (cycle counts, exit traces, benchmark
// figures). Determinism and panic-freedom are enforced here; packages
// outside this set (benchmark drivers, CLI tools, the guest assembler
// toolchain's build helpers) may use wall-clock time for reporting.
// The set is closed under imports (TestSimCriticalPackagesClosed), so
// globalstate inspects every global a machine's step path can reach.
var SimCriticalPackages = []string{
	ModulePath + "/internal/hypervisor",
	ModulePath + "/internal/hw",
	ModulePath + "/internal/vmm",
	ModulePath + "/internal/x86",
	ModulePath + "/internal/cap",
	ModulePath + "/internal/trace",
	ModulePath + "/internal/prof",
	ModulePath + "/internal/stat",
	ModulePath + "/internal/services",
	ModulePath + "/internal/span",
	ModulePath + "/internal/obs",
}

// EntryPointPackages hold the kernel and device-model entry points that
// must charge cycles for the work they model.
var EntryPointPackages = []string{
	ModulePath + "/internal/hypervisor",
	ModulePath + "/internal/vmm",
}

// SuiteEntry pairs an analyzer with the import paths it applies to on
// repository runs. A nil Paths means every package in the program.
type SuiteEntry struct {
	Analyzer *Analyzer
	Paths    []string
}

// DefaultSuite is the invariant gate cmd/nova-vet and the repo-wide
// test both run. Order is stable and alphabetical by analyzer name.
func DefaultSuite() []SuiteEntry {
	return []SuiteEntry{
		{Capcheck, nil}, // self-limiting: only fires on hypercall-shaped Kernel methods
		{Capflow, EntryPointPackages},
		{Chargecheck, EntryPointPackages},
		{Concurrency, SimCriticalPackages},
		{Determinism, SimCriticalPackages},
		{Exhaustive, SimCriticalPackages},
		{Globalstate, SimCriticalPackages},
		{Nopanic, SimCriticalPackages},
		{Taint, SimCriticalPackages},
		{Tracepure, nil}, // self-limiting: only fires on trace-shaped code
	}
}

// SelectEntries filters the default suite down to the named analyzers,
// preserving suite order. An unknown name is an error (a typo must not
// silently skip a gate); names are the Analyzer.Name values -list
// prints.
func SelectEntries(names []string) ([]SuiteEntry, error) {
	suite := DefaultSuite()
	byName := make(map[string]SuiteEntry, len(suite))
	for _, e := range suite {
		byName[e.Analyzer.Name] = e
	}
	want := make(map[string]bool)
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := byName[n]; !ok {
			known := make([]string, 0, len(suite))
			for _, e := range suite {
				known = append(known, e.Analyzer.Name)
			}
			return nil, fmt.Errorf("analysis: unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
		want[n] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("analysis: no analyzers selected")
	}
	var out []SuiteEntry
	for _, e := range suite {
		if want[e.Analyzer.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Timing is one analyzer's share of a suite run, for -json output and
// budget tracking.
type Timing struct {
	Analyzer string  `json:"analyzer"`
	Seconds  float64 `json:"seconds"`
	Findings int     `json:"findings"`
}

// RunSuite loads the repository rooted at root and runs every suite
// entry, returning the combined diagnostics.
func RunSuite(root string) ([]Diagnostic, error) {
	diags, _, err := RunEntries(root, DefaultSuite())
	return diags, err
}

// RunEntries loads the repository and runs the given suite entries,
// timing each analyzer on the host wall clock.
func RunEntries(root string, entries []SuiteEntry) ([]Diagnostic, []Timing, error) {
	prog, err := LoadRepo(root)
	if err != nil {
		return nil, nil, err
	}
	return RunEntriesOn(prog, entries)
}

// RunSuiteOn runs the default suite over an already-loaded program.
func RunSuiteOn(prog *Program) ([]Diagnostic, error) {
	diags, _, err := RunEntriesOn(prog, DefaultSuite())
	return diags, err
}

// RunEntriesOn runs the given suite entries over an already-loaded
// program, timing each analyzer.
func RunEntriesOn(prog *Program, entries []SuiteEntry) ([]Diagnostic, []Timing, error) {
	var all []Diagnostic
	timings := make([]Timing, 0, len(entries))
	for _, e := range entries {
		targets, err := selectTargets(prog, e.Paths)
		if err != nil {
			return nil, nil, err
		}
		sw := walltime.Start()
		diags := e.Analyzer.Run(prog, targets)
		if prog.fixErr != nil {
			return nil, nil, prog.fixErr
		}
		timings = append(timings, Timing{Analyzer: e.Analyzer.Name, Seconds: sw.Seconds(), Findings: len(diags)})
		all = append(all, diags...)
	}
	return all, timings, nil
}

func selectTargets(prog *Program, paths []string) ([]*Package, error) {
	if paths == nil {
		return prog.Pkgs, nil
	}
	var targets []*Package
	var missing []string
	for _, p := range paths {
		if pkg := prog.Package(p); pkg != nil {
			targets = append(targets, pkg)
		} else {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		// A policy package disappearing silently would disable the
		// check; fail loudly so renames update the suite.
		return nil, fmt.Errorf("analysis: suite packages not found in program: %s", strings.Join(missing, ", "))
	}
	return targets, nil
}
