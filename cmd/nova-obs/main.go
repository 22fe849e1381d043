// Command nova-obs renders the observability file `nova-run -obs`
// writes (or any obs.File): the trace, stat, span and profile sections
// of one run.
//
//	nova-obs timeline [-limit N] run.obs        # trace: event timeline
//	nova-obs attrib run.obs                     # trace: Figure 8/9 cost attribution
//	nova-obs chrome run.obs                     # trace exits and span segments, Chrome JSON
//	nova-obs stat report [-filter S] run.obs    # stat: summary table with rates
//	nova-obs stat epochs -metric NAME run.obs   # stat: one metric's virtual-time series
//	nova-obs stat openmetrics run.obs           # stat: OpenMetrics text format
//	nova-obs stat json run.obs                  # stat: the snapshot as JSON
//	nova-obs span report [-requests N] run.obs  # spans: per-class tails + critical paths
//	nova-obs span json run.obs                  # spans: the report and every span, JSON
//	nova-obs profile report [-top N] run.obs    # profile: mode split + hot addresses
//	nova-obs profile folded run.obs             # profile: folded stacks (flamegraph input)
//	nova-obs profile pprof [-o OUT] run.obs     # profile: pprof protobuf (go tool pprof)
//
// Everything printed derives from deterministic virtual-time data: two
// runs of the same workload render identically. The chrome output
// loads into chrome://tracing or Perfetto with the trace on one process
// (VM exits, IPC and vTLB fills as spans, other events as instants, one
// track per CPU) and the request spans' critical-path segments on a
// second.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"nova/internal/obs"
	"nova/internal/prof"
	"nova/internal/span"
	"nova/internal/stat"
	"nova/internal/trace"
	"nova/internal/x86"
)

const usageText = `usage: nova-obs VIEW [flags] FILE
  timeline [-limit N] | attrib | chrome
  stat report [-filter S] | stat epochs -metric NAME | stat openmetrics | stat json
  span report [-requests N] | span json
  profile report [-top N] | profile folded | profile pprof [-o OUT]`

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fail(usageText)
	}
	view, args := args[0], args[1:]
	if view == "stat" || view == "span" || view == "profile" {
		if len(args) == 0 {
			fail(usageText)
		}
		view, args = view+" "+args[0], args[1:]
	}
	fs := flag.NewFlagSet(view, flag.ExitOnError)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usageText); fs.PrintDefaults() }
	limit := fs.Int("limit", 0, "timeline: print at most N events (0 = all)")
	filter := fs.String("filter", "", "stat report: only metrics whose name contains this substring")
	metric := fs.String("metric", "", "stat epochs: metric name (exact, including labels)")
	requests := fs.Int("requests", 0, "span report: also dump the first N individual requests")
	top := fs.Int("top", 20, "profile report: rows in the hot-address table")
	out := fs.String("o", "", "profile pprof: output file (default stdout)")
	fs.Parse(args) //nolint:errcheck
	if fs.NArg() != 1 {
		fail(usageText)
	}
	path := fs.Arg(0)
	b, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	f, err := obs.Decode(b)
	if err != nil {
		fail("%s: %v", path, err)
	}
	switch view {
	case "timeline":
		timeline(f, need(f.Trace, path, "trace"), *limit)
	case "attrib":
		d := need(f.Trace, path, "trace")
		warnTruncation("trace", &d.Rings)
		attrib(d)
	case "chrome":
		if f.Trace == nil && f.Spans == nil {
			fail("%s: no trace or span section (record one in a virtualized mode)", path)
		}
		chrome(f)
	case "stat report":
		statReport(f, need(f.Stat, path, "stat"), *filter)
	case "stat epochs":
		epochs(need(f.Stat, path, "stat"), *metric)
	case "stat openmetrics":
		os.Stdout.Write(need(f.Stat, path, "stat").OpenMetrics()) //nolint:errcheck
	case "stat json":
		d := need(f.Stat, path, "stat")
		type meta struct {
			obs.Header
			EpochLen uint64 `json:"epoch_len"`
		}
		printJSON(struct {
			Meta        meta              `json:"meta"`
			FinalCycles uint64            `json:"final_cycles"`
			Metrics     []stat.MetricData `json:"metrics"`
		}{meta{f.Header, d.EpochLen}, d.FinalCycles, d.Metrics})
	case "span report":
		d := need(f.Spans, path, "span")
		warnTruncation("span", &d.Rings)
		spanReport(f, d, *requests)
	case "span json":
		d := need(f.Spans, path, "span")
		warnTruncation("span", &d.Rings)
		spans := span.BuildSpans(d)
		type meta struct {
			obs.Header
			RingCapacity int `json:"ring_capacity"`
		}
		printJSON(struct {
			Meta   meta         `json:"meta"`
			Report *span.Report `json:"report"`
			Spans  []*span.Span `json:"spans"`
		}{meta{f.Header, d.Capacity}, span.BuildReport(d, spans, f.FreqMHz), spans})
	case "profile report":
		profReport(f, need(f.Prof, path, "profile"), *top)
	case "profile folded":
		for _, line := range need(f.Prof, path, "profile").Folded() {
			fmt.Println(line)
		}
	case "profile pprof":
		writePprof(need(f.Prof, path, "profile"), *out)
	default:
		fail(usageText)
	}
}

// need returns a file's section, or exits naming the missing sink.
func need[T any](section *T, path, name string) *T {
	if section == nil {
		fail("%s: no %s section (nova-run -obs records it in every mode that supports it)", path, name)
	}
	return section
}

// warnTruncation prints one stderr notice per CPU whose ring wrapped:
// views built from the ring's records then cover only the tail of the
// run. The whole-run counts are in the stat section and the span
// section's opened/closed counters. Each ring's overwrite count is
// stored once, in its ring header.
func warnTruncation(name string, r *trace.Rings) {
	for cpu, n := range r.Overwritten {
		if n > 0 {
			fmt.Fprintf(os.Stderr,
				"nova-obs: warning: cpu%d %s ring overwrote %d records; views built from its records cover only the tail of the run\n",
				cpu, name, n)
		}
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func exitName(r uint64) string { return x86.ExitReason(r).String() }

// detail renders one event's payload using the kind-specific argument
// meanings documented in the trace package.
func detail(e trace.Event) string {
	switch e.Kind {
	case trace.KindVMExit:
		s := fmt.Sprintf("reason=%s eip=%#x ec=%d", exitName(e.A0), e.A1, e.A2)
		if e.A3 != 0 {
			s += fmt.Sprintf(" vector=%#x", e.A3)
		}
		return s
	case trace.KindVMResume:
		return fmt.Sprintf("reason=%s dur=%d ec=%d", exitName(e.A0), e.A1, e.A2)
	case trace.KindHypercall:
		return fmt.Sprintf("pd=%d", e.A0)
	case trace.KindIPCCall:
		return fmt.Sprintf("portal=%d words=%d cross-as=%d", e.A0, e.A1, e.A2)
	case trace.KindIPCReply:
		return fmt.Sprintf("portal=%d latency=%d cross-as=%d", e.A0, e.A1, e.A2)
	case trace.KindSchedDispatch:
		return fmt.Sprintf("ec=%d prio=%d wait=%d", e.A0, e.A1, e.A2)
	case trace.KindSemUp:
		return fmt.Sprintf("sem=%d woken=%d", e.A0, e.A1)
	case trace.KindSemDown:
		return fmt.Sprintf("sem=%d acquired=%d", e.A0, e.A1)
	case trace.KindRecall:
		return fmt.Sprintf("ec=%d", e.A0)
	case trace.KindInject:
		return fmt.Sprintf("vector=%#x ec=%d", e.A0, e.A1)
	case trace.KindHostIRQ:
		s := fmt.Sprintf("vector=%#x line=%d", e.A0, int64(e.A1))
		if e.A2 != ^uint64(0) {
			s += fmt.Sprintf(" preempted-ec=%d", e.A2)
		}
		return s
	case trace.KindVTLBFill:
		return fmt.Sprintf("va=%#x dur=%d ec=%d", e.A0, e.A1, e.A2)
	case trace.KindVTLBFlush:
		cause := fmt.Sprintf("cr%d", e.A0)
		if e.A0 == trace.CauseINVLPG {
			cause = fmt.Sprintf("invlpg va=%#x", e.A2)
		}
		return fmt.Sprintf("cause=%s ec=%d", cause, e.A1)
	case trace.KindPIO:
		dir := "out"
		if e.A1 != 0 {
			dir = "in"
		}
		return fmt.Sprintf("port=%#x %s val=%#x size=%d", e.A0, dir, e.A2, e.A3)
	case trace.KindMMIO:
		dir := "write"
		if e.A1 != 0 {
			dir = "read"
		}
		return fmt.Sprintf("gpa=%#x %s val=%#x size=%d", e.A0, dir, e.A2, e.A3)
	case trace.KindEmulate:
		return fmt.Sprintf("eip=%#x", e.A0)
	case trace.KindBIOSCall:
		return fmt.Sprintf("int=%#x ah=%#x", e.A0, e.A1)
	case trace.KindDiskRequest, trace.KindDiskIssue:
		op := "read"
		if e.A0 == 2 {
			op = "write"
		}
		return fmt.Sprintf("op=%s lba=%d count=%d slot=%d", op, e.A1, e.A2, e.A3&0xff)
	case trace.KindDiskComplete:
		return fmt.Sprintf("slot=%d ok=%d", e.A0, e.A1)
	case trace.KindDiskDone:
		return fmt.Sprintf("cookie=%d ok=%d client=%d", e.A0, e.A1, e.A2)
	case trace.KindNetRX:
		return fmt.Sprintf("len=%d delivered=%d", e.A0, e.A1)
	default:
		return fmt.Sprintf("a0=%#x a1=%#x a2=%#x a3=%#x", e.A0, e.A1, e.A2, e.A3)
	}
}

func timeline(f *obs.File, d *trace.Data, limit int) {
	fmt.Printf("trace: %s @ %d MHz, %d CPU(s), ring capacity %d\n",
		f.Model, f.FreqMHz, f.NumCPUs, d.Capacity)
	for cpu, over := range d.Overwritten {
		if over > 0 {
			fmt.Printf("cpu%d: %d events overwritten (ring wrapped)\n", cpu, over)
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "CYCLES\tCPU\tSEQ\tEVENT\tDETAIL")
	events := d.Events()
	for i, e := range events {
		if limit > 0 && i >= limit {
			fmt.Fprintf(w, "...\t\t\t(%d more)\t\n", len(events)-limit)
			break
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\n", e.Time, e.CPU, e.Seq, e.Kind, detail(e))
	}
	w.Flush() //nolint:errcheck
}

func attrib(d *trace.Data) {
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', tabwriter.AlignRight)

	fmt.Println("VM-exit cost attribution (cycles):")
	fmt.Fprintln(w, "reason\tcount\ttotal\thardware\tvmm\tkernel\tavg\t")
	var count, total, hardware, vmm, kernel uint64
	for _, r := range trace.ExitBreakdown(d) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Reason, r.Count, r.Total, r.Hardware, r.VMM, r.Kernel, r.Total/r.Count)
		count += r.Count
		total += r.Total
		hardware += r.Hardware
		vmm += r.VMM
		kernel += r.Kernel
	}
	if count > 0 {
		fmt.Fprintf(w, "(all)\t%d\t%d\t%d\t%d\t%d\t%d\t\n", count, total, hardware, vmm, kernel, total/count)
	}
	w.Flush() //nolint:errcheck

	ipc := trace.ComputeIPCBreakdown(d)
	if ipc.SameCount+ipc.CrossCount > 0 {
		fmt.Println("\nIPC breakdown, one-way message transfer (Figure 8, cycles):")
		fmt.Fprintf(w, "entry+exit\t%d\t\n", ipc.EntryExit)
		fmt.Fprintf(w, "ipc path\t%d\t\n", ipc.IPCPath)
		fmt.Fprintf(w, "tlb effects\t%d\t\n", ipc.TLBEffects)
		fmt.Fprintf(w, "same-AS total\t%d\t(%d calls)\n", ipc.SameOneWay, ipc.SameCount)
		fmt.Fprintf(w, "cross-AS total\t%d\t(%d calls)\n", ipc.CrossOneWay, ipc.CrossCount)
		w.Flush() //nolint:errcheck
	}

	vtlb := trace.ComputeVTLBBreakdown(d)
	if vtlb.Fills > 0 {
		fmt.Println("\nvTLB miss breakdown (Figure 9, cycles):")
		fmt.Fprintf(w, "exit+resume\t%d\t\n", vtlb.ExitResume)
		fmt.Fprintf(w, "vmread x6\t%d\t\n", vtlb.VMReads)
		fmt.Fprintf(w, "vtlb fill\t%d\t\n", vtlb.Fill)
		fmt.Fprintf(w, "per miss\t%d\t(%d fills, avg %d)\n", vtlb.PerMiss, vtlb.Fills, vtlb.AvgFill)
		w.Flush() //nolint:errcheck
	}
}

// chromeEvent is one trace_event record (JSON Array Format).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chrome renders the trace (process 1) and the request spans' segments
// (process 2) into one trace_event file, one track per CPU in each.
func chrome(f *obs.File) {
	mhz := float64(f.FreqMHz)
	if mhz == 0 {
		mhz = 1
	}
	us := func(c int64) float64 { return float64(c) / mhz }
	var out []chromeEvent
	process := func(pid int, name string) {
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]string{"name": name}})
	}
	if d := f.Trace; d != nil {
		warnTruncation("trace", &d.Rings)
		process(1, "trace")
		for _, e := range d.Events() {
			ce := chromeEvent{Ph: "X", PID: 1, TID: int(e.CPU), Ts: us(int64(e.Time) - int64(e.A1)), Dur: us(int64(e.A1))}
			switch e.Kind {
			case trace.KindVMResume:
				// The whole exit-to-resume window as a span.
				ce.Name = "vmexit:" + exitName(e.A0)
			case trace.KindIPCReply:
				ce.Name = "ipc"
			case trace.KindVTLBFill:
				ce.Name = "vtlb-fill"
			case trace.KindVMExit:
				// The matching resume draws the span; skip the edge.
				continue
			default:
				ce = chromeEvent{Name: e.Kind.String(), Ph: "i", Ts: us(int64(e.Time)), PID: 1, TID: int(e.CPU), S: "t"}
			}
			ce.Args = map[string]string{"detail": detail(e)}
			out = append(out, ce)
		}
	}
	if d := f.Spans; d != nil {
		warnTruncation("span", &d.Rings)
		process(2, "request spans")
		for _, s := range span.BuildSpans(d) {
			id := fmt.Sprintf("%d", uint64(s.ID))
			for _, p := range s.Path {
				if p.Dur <= 0 {
					continue // cross-CPU clock skew can yield non-positive hops
				}
				out = append(out, chromeEvent{
					Name: s.Name + ":" + p.Name, Ph: "X", Ts: us(int64(p.Start)), Dur: us(p.Dur),
					PID: 2, TID: int(s.CPU),
					Args: map[string]string{"span": id, "detail": fmt.Sprintf("%d", s.Detail)},
				})
			}
		}
	}
	json.NewEncoder(os.Stdout).Encode(out) //nolint:errcheck
}

func statReport(f *obs.File, d *stat.Data, filter string) {
	seconds := float64(d.FinalCycles) / (float64(f.FreqMHz) * 1e6)
	fmt.Printf("stats: %s @ %d MHz, %d CPU(s), epoch length %d cycles\n",
		f.Model, f.FreqMHz, f.NumCPUs, d.EpochLen)
	fmt.Printf("run: %d virtual cycles = %.3f ms simulated time\n\n",
		d.FinalCycles, seconds*1000)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "METRIC\tKIND\tTOTAL\tRATE/SEC\tDETAIL")
	shown := 0
	for i := range d.Metrics {
		md := &d.Metrics[i]
		if filter != "" && !strings.Contains(md.Name, filter) {
			continue
		}
		shown++
		rate := "-"
		if seconds > 0 && (md.Kind == "counter" || md.Kind == "histogram") {
			rate = fmt.Sprintf("%.1f", float64(md.Total)/seconds)
		}
		detail := ""
		switch {
		case md.Kind == "gauge":
			detail = fmt.Sprintf("max %d", md.Max)
		case md.Hist != nil && md.Hist.Count > 0:
			h := md.Hist
			// p50/p99/p999 are nearest-rank quantiles from the log2
			// buckets: exact ranks, bucket-upper-bound values.
			detail = fmt.Sprintf("avg %d cycles, min %d, p50 %d, p99 %d, p999 %d, max %d",
				h.Sum/h.Count, h.Min,
				h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n", md.Name, md.Kind, md.Total, rate, detail)
	}
	w.Flush() //nolint:errcheck
	if shown == 0 {
		fmt.Printf("no metrics match %q\n", filter)
	}
}

// epochs prints one metric's virtual-time series, one line per epoch
// cell with its cycle window.
func epochs(d *stat.Data, name string) {
	if name == "" {
		fail("stat epochs: -metric NAME is required")
	}
	for i := range d.Metrics {
		md := &d.Metrics[i]
		if md.Name != name {
			continue
		}
		fmt.Printf("%s (%s): %d total over %d epoch(s)\n", md.Name, md.Kind, md.Total, len(md.Epochs))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "EPOCH\tCYCLES\tVALUE")
		for _, c := range md.Epochs {
			lo := c.Epoch * d.EpochLen
			fmt.Fprintf(w, "%d\t[%d,%d)\t%d\n", c.Epoch, lo, lo+d.EpochLen, c.Value)
		}
		w.Flush() //nolint:errcheck
		return
	}
	fail("stat epochs: no metric named %q (try `nova-obs stat report` to list names)", name)
}

func spanReport(f *obs.File, d *span.Data, requests int) {
	spans := span.BuildSpans(d)
	rep := span.BuildReport(d, spans, f.FreqMHz)
	fmt.Printf("spans: %s @ %d MHz, %d CPU(s), ring capacity %d\n",
		f.Model, f.FreqMHz, f.NumCPUs, d.Capacity)
	fmt.Printf("requests: %d opened, %d closed over the whole run\n\n", rep.Opened, rep.Closed)

	mhz := float64(f.FreqMHz)
	if mhz == 0 {
		mhz = 1
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Println("virtual-time latency per request class (cycles; exact percentiles):")
	fmt.Fprintln(w, "class\tcount\topen\tfailed\tmin\tmean\tp50\tp99\tp999\tmax\t")
	for _, c := range rep.Classes {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			c.Class, c.Count, c.Open, c.Failed, c.Min, c.Mean, c.P50, c.P99, c.P999, c.Max)
	}
	w.Flush() //nolint:errcheck

	for _, c := range rep.Classes {
		if len(c.Segs) == 0 {
			continue
		}
		var total int64
		for _, s := range c.Segs {
			total += s.Total
		}
		fmt.Printf("\n%s critical path (%d requests):\n", c.Class, c.Count)
		for _, s := range c.Segs {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(s.Total) / float64(total)
			}
			fmt.Fprintf(w, "%s\t%d\tcycles\t%d\tavg\t%5.1f%%\t\n", s.Seg, s.Total, s.Avg, pct)
		}
		w.Flush() //nolint:errcheck
	}

	if requests <= 0 {
		return
	}
	fmt.Printf("\nindividual requests (first %d):\n", requests)
	for i, s := range spans {
		if i >= requests {
			break
		}
		status := "open"
		if s.Closed {
			switch s.Status {
			case span.StatusOK:
				status = "ok"
			case span.StatusError:
				status = "error"
			case span.StatusNoIRQ:
				status = "ok-no-irq"
			default:
				status = fmt.Sprintf("status-%d", s.Status)
			}
		}
		fmt.Printf("#%d %s detail=%d cpu=%d open=%d", uint64(s.ID), s.Name, s.Detail, s.CPU, s.Open)
		if s.Closed {
			fmt.Printf(" close=%d latency=%d [%s]", s.End, s.Duration(), status)
		} else {
			fmt.Printf(" [%s]", status)
		}
		fmt.Println()
		var sum int64
		for _, p := range s.Path {
			fmt.Printf("    %-12s @%d  %d cycles (%.2f us)\n", p.Name, p.Start, p.Dur, float64(p.Dur)/mhz)
			sum += p.Dur
		}
		for _, a := range s.Annot {
			fmt.Printf("    annot key=%d val=%d\n", a.Key, a.Val)
		}
		if s.Closed && len(s.Path) > 0 {
			fmt.Printf("    path sum = %d (end-to-end %d)\n", sum, s.Duration())
		}
	}
}

func profReport(f *obs.File, d *prof.Data, top int) {
	fmt.Printf("profile: %s @ %d MHz, %d CPU(s), period %d cycles, buffer capacity %d\n",
		f.Model, f.FreqMHz, f.NumCPUs, d.Period, d.Capacity)
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
	var fuseWeight, condWeight, codeWeight uint64
	for _, h := range hot {
		mark, code := site(d, h.Addr, h.Def32)
		if mark != "" {
			codeWeight += h.Samples
			switch mark {
			case "fuse":
				fuseWeight += h.Samples
			case "fuse?":
				condWeight += h.Samples
			}
		}
		fmt.Fprintf(w, "0x%08x\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			h.Addr, h.Samples, h.Exits, h.Fills, h.Emuls, h.TotalCycles(), mark, code)
	}
	w.Flush() //nolint:errcheck
	if codeWeight > 0 {
		fmt.Printf("\nfusibility: of the sampled weight at hot addresses with captured code,\n"+
			"%.1f%% is always fusible (see `fuse` rows) and %.1f%% conditionally fusible\n"+
			"(`fuse?` rows: a memory operand joins a run while its access is a free TLB hit,\n"+
			"DIV while it cannot raise #DE, and neither starts one); fusible instructions on\n"+
			"one code page execute as fused runs, in profiled runs too (a run ends before a\n"+
			"sample point)\n",
			100*float64(fuseWeight)/float64(codeWeight), 100*float64(condWeight)/float64(codeWeight))
	}
}

// site disassembles the captured instruction bytes at a hot address and
// classifies them for fused execution (x86.InstFusible): "fuse" when
// the instruction can always run inside a fused run, "fuse?" when it
// can only where its memory access is free or, for DIV, where it cannot
// raise #DE, "-" when it forces single-stepping (privileged, faulting,
// stack and string forms). Both are empty when the profile carries no
// code for the address.
func site(d *prof.Data, addr uint32, def32 bool) (mark, code string) {
	for _, c := range d.Code {
		if c.Addr != addr || c.Def32 != def32 {
			continue
		}
		inst, err := x86.Decode(&x86.BytesFetcher{Data: c.Bytes}, c.Def32)
		if err != nil {
			return "", fmt.Sprintf("db %02x...", c.Bytes[0])
		}
		switch fusible, always := x86.InstFusible(inst); {
		case always:
			return "fuse", inst.String()
		case fusible:
			return "fuse?", inst.String()
		}
		return "-", inst.String()
	}
	return "", ""
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
	fmt.Fprintf(os.Stderr, strings.TrimRight(format, "\n")+"\n", args...)
	os.Exit(1)
}
