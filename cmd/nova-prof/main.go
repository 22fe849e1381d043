// Command nova-prof renders a guest profile captured with
// `nova-run -prof`. Three views:
//
//	nova-prof report run.prof            # summary + hot-address table
//	nova-prof folded run.prof            # folded stacks (flamegraph input)
//	nova-prof pprof -o run.pb run.prof   # pprof protobuf (go tool pprof)
//
// The folded output feeds any flamegraph renderer directly; the pprof
// output opens with `go tool pprof run.pb` and carries both sample
// counts and cycles, with mode and event labels for filtering.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"nova/internal/prof"
	"nova/internal/x86"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		fs := flag.NewFlagSet("report", flag.ExitOnError)
		top := fs.Int("top", 20, "rows in the hot-address table")
		fs.Parse(os.Args[2:]) //nolint:errcheck
		report(load(fs), *top)
	case "folded":
		fs := flag.NewFlagSet("folded", flag.ExitOnError)
		fs.Parse(os.Args[2:]) //nolint:errcheck
		for _, line := range load(fs).Folded() {
			fmt.Println(line)
		}
	case "pprof":
		fs := flag.NewFlagSet("pprof", flag.ExitOnError)
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:]) //nolint:errcheck
		writePprof(load(fs), *out)
	default:
		usage()
	}
}

func usage() {
	fail("usage: nova-prof report [-top N] FILE | folded FILE | pprof [-o FILE] FILE")
}

// load decodes the profile named by the flag set's one positional
// argument.
func load(fs *flag.FlagSet) *prof.Data {
	if fs.NArg() != 1 {
		usage()
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	d, err := prof.Decode(b)
	if err != nil {
		fail("%v", err)
	}
	return d
}

func report(d *prof.Data, top int) {
	m := d.Meta
	fmt.Printf("profile: %s @ %d MHz, %d CPU(s), period %d cycles, buffer capacity %d\n",
		m.Model, m.FreqMHz, m.NumCPUs, m.Period, m.Capacity)
	for cpu, samples := range d.Samples {
		line := fmt.Sprintf("cpu%d: %d samples", cpu, len(samples))
		if over := d.Overwritten[cpu]; over > 0 {
			line += fmt.Sprintf(", %d overwritten (raise the buffer capacity)", over)
		}
		fmt.Println(line)
	}

	// Time decomposition by mode, in grid points (= Period cycles each).
	var byMode [prof.NumModes]uint64
	var total uint64
	for _, per := range d.Samples {
		for _, s := range per {
			if int(s.Mode) < prof.NumModes {
				byMode[s.Mode] += s.Weight
				total += s.Weight
			}
		}
	}
	if total > 0 {
		fmt.Println("\nsampled time by mode:")
		for mode, w := range byMode {
			if w > 0 {
				fmt.Printf("  %-10s %8d samples  %5.1f%%\n",
					prof.Mode(mode), w, 100*float64(w)/float64(total))
			}
		}
	}

	// Exact-cost attribution totals per event kind.
	var counts, cycles [prof.NumAttribKinds]uint64
	for _, a := range d.Attrib {
		if int(a.Kind) < prof.NumAttribKinds {
			counts[a.Kind] += a.Count
			cycles[a.Kind] += a.Cycles
		}
	}
	if counts[prof.AttribExit]+counts[prof.AttribVTLBFill]+counts[prof.AttribEmulate] > 0 {
		fmt.Println("\nattributed virtualization events:")
		for kind := range counts {
			if counts[kind] > 0 {
				fmt.Printf("  %-10s %8d events  %12d cycles\n",
					prof.AttribKind(kind), counts[kind], cycles[kind])
			}
		}
	}

	hot := d.Hot(top)
	if len(hot) == 0 {
		return
	}
	fmt.Println("\nhot addresses (sampled + attributed cycles):")
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "ADDR\tSAMPLES\tEXITS\tFILLS\tEMULS\tCYCLES\tFUSE\tCODE")
	var fuseWeight, codeWeight uint64
	for _, h := range hot {
		mark := fuseMark(d, h.Addr, h.Def32)
		if mark != "" {
			codeWeight += h.Samples
			if mark == "fuse" {
				fuseWeight += h.Samples
			}
		}
		fmt.Fprintf(w, "0x%08x\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			h.Addr, h.Samples, h.Exits, h.Fills, h.Emuls, h.TotalCycles(),
			mark, disasm(d, h.Addr, h.Def32))
	}
	w.Flush() //nolint:errcheck
	if codeWeight > 0 {
		fmt.Printf("\nfusibility: %.1f%% of the sampled weight at hot addresses with captured code\n"+
			"is superblock-fusible (see `fuse` rows); fusible runs of length >= 2 execute\n"+
			"as fused blocks, in profiled runs too (a block ends before a sample point)\n",
			100*float64(fuseWeight)/float64(codeWeight))
	}
}

// fuseMark classifies a hot address for the superblock layer: "fuse"
// when the captured instruction is fusible (x86.InstFusible — it can
// sit inside a fused superblock), "-" when it forces single-stepping
// (memory operand, privileged, faulting, extra-cycle forms), and empty
// when the profile carries no code bytes for the site.
func fuseMark(d *prof.Data, addr uint32, def32 bool) string {
	for _, site := range d.Code {
		if site.Addr != addr || site.Def32 != def32 {
			continue
		}
		inst, err := x86.Decode(&x86.BytesFetcher{Data: site.Bytes}, site.Def32)
		if err != nil {
			return ""
		}
		if x86.InstFusible(inst) {
			return "fuse"
		}
		return "-"
	}
	return ""
}

// disasm renders the captured instruction bytes at a hot address, if
// the profile carries them.
func disasm(d *prof.Data, addr uint32, def32 bool) string {
	for _, site := range d.Code {
		if site.Addr != addr || site.Def32 != def32 {
			continue
		}
		inst, err := x86.Decode(&x86.BytesFetcher{Data: site.Bytes}, site.Def32)
		if err != nil {
			return fmt.Sprintf("db %02x...", site.Bytes[0])
		}
		return inst.String()
	}
	return ""
}

func writePprof(d *prof.Data, out string) {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := d.WritePprof(w); err != nil {
		fail("write pprof: %v", err)
	}
	if out != "" {
		fmt.Printf("pprof: %s (open with `go tool pprof %s`)\n", out, out)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
