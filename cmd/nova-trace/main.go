// Command nova-trace renders a trace file captured with
// `nova-run -trace` (or any other tracer user). Three views:
//
//	nova-trace run.trace                  # textual timeline
//	nova-trace -format attrib run.trace   # Figure 8/9 cost attribution
//	nova-trace -format chrome run.trace   # Chrome trace_event JSON
//	nova-trace -format metrics run.trace  # exit counts and histograms
//
// The chrome output loads into chrome://tracing or Perfetto; VM
// exit-to-resume spans become complete ("X") events, everything else an
// instant event on its CPU's track.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"nova/internal/trace"
)

func main() {
	format := flag.String("format", "timeline", "timeline|attrib|chrome|metrics")
	limit := flag.Int("limit", 0, "print at most N timeline events (0 = all)")
	flag.Parse()
	if flag.NArg() != 1 {
		fail("usage: nova-trace [-format timeline|attrib|chrome|metrics] FILE")
	}
	b, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	d, err := trace.Decode(b)
	if err != nil {
		fail("%v", err)
	}
	switch *format {
	case "timeline":
		timeline(d, *limit)
	case "attrib":
		warnTruncation(d)
		attrib(d)
	case "chrome":
		warnTruncation(d)
		chrome(d)
	case "metrics":
		warnTruncation(d)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(d.Metrics) //nolint:errcheck
	default:
		fail("unknown format %q", *format)
	}
}

// warnTruncation prints exactly one stderr notice per CPU whose ring
// wrapped: event-derived views (attrib spans, chrome timeline) then
// cover only the tail of the run, though the exit counts and histograms
// in the metrics section still cover everything. The overwrite counts are
// record-granular (one per overwritten record, not per emission call);
// the ring headers and the metrics section report the same counter, so
// take the max rather than warning from each source separately.
func warnTruncation(d *trace.TraceData) {
	over := make([]uint64, len(d.Overwritten))
	copy(over, d.Overwritten)
	for _, r := range d.Metrics.Rings {
		if r.CPU >= 0 && r.CPU < len(over) && r.Overwritten > over[r.CPU] {
			over[r.CPU] = r.Overwritten
		}
	}
	for cpu, n := range over {
		if n > 0 {
			fmt.Fprintf(os.Stderr,
				"nova-trace: warning: cpu%d ring overwrote %d events; event-derived output covers only the tail of the run (raise -trace-capacity)\n",
				cpu, n)
		}
	}
}

// kindName resolves a kind through the trace's own name table, so the
// renderer keeps working on traces from other tracer versions.
func kindName(d *trace.TraceData, k trace.Kind) string {
	if int(k) < len(d.Meta.KindNames) {
		return d.Meta.KindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

func exitName(d *trace.TraceData, r uint64) string {
	if int(r) < len(d.Meta.ExitReasons) {
		return d.Meta.ExitReasons[r]
	}
	return fmt.Sprintf("reason-%d", r)
}

// detail renders one event's payload using the kind-specific argument
// meanings documented in the trace package.
func detail(d *trace.TraceData, e trace.Event) string {
	switch e.Kind {
	case trace.KindVMExit:
		s := fmt.Sprintf("reason=%s eip=%#x ec=%d", exitName(d, e.A0), e.A1, e.A2)
		if e.A3 != 0 {
			s += fmt.Sprintf(" vector=%#x", e.A3)
		}
		return s
	case trace.KindVMResume:
		return fmt.Sprintf("reason=%s dur=%d ec=%d", exitName(d, e.A0), e.A1, e.A2)
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
		if e.A0 == 0xff {
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

func timeline(d *trace.TraceData, limit int) {
	fmt.Printf("trace: %s @ %d MHz, %d CPU(s), ring capacity %d\n",
		d.Meta.Model, d.Meta.FreqMHz, d.Meta.NumCPUs, d.Meta.RingCapacity)
	for cpu, over := range d.Overwritten {
		if over > 0 {
			fmt.Printf("cpu%d: %d events overwritten (ring wrapped; raise -trace-capacity)\n", cpu, over)
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "CYCLES\tCPU\tSEQ\tEVENT\tDETAIL")
	for i, e := range d.Events() {
		if limit > 0 && i >= limit {
			fmt.Fprintf(w, "...\t\t\t(%d more)\t\n", len(d.Events())-limit)
			break
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\n", e.Time, e.CPU, e.Seq, kindName(d, e.Kind), detail(d, e))
	}
	w.Flush() //nolint:errcheck
}

func attrib(d *trace.TraceData) {
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', tabwriter.AlignRight)

	fmt.Println("VM-exit cost attribution (cycles):")
	fmt.Fprintln(w, "reason\tcount\ttotal\thardware\tvmm\tkernel\tavg\t")
	rows := trace.ExitBreakdown(d)
	var count, total, hardware, vmm, kernel uint64
	for _, r := range rows {
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

func chrome(d *trace.TraceData) {
	mhz := float64(d.Meta.FreqMHz)
	if mhz == 0 {
		mhz = 1
	}
	us := func(c uint64) float64 { return float64(c) / mhz }
	var out []chromeEvent
	for _, e := range d.Events() {
		ce := chromeEvent{PID: 1, TID: int(e.CPU)}
		switch e.Kind {
		case trace.KindVMResume:
			// Render the whole exit-to-resume window as a span.
			ce.Name = "vmexit:" + exitName(d, e.A0)
			ce.Ph = "X"
			ce.Ts = us(uint64(e.Time) - e.A1)
			ce.Dur = us(e.A1)
		case trace.KindIPCReply:
			ce.Name = "ipc"
			ce.Ph = "X"
			ce.Ts = us(uint64(e.Time) - e.A1)
			ce.Dur = us(e.A1)
		case trace.KindVTLBFill:
			ce.Name = "vtlb-fill"
			ce.Ph = "X"
			ce.Ts = us(uint64(e.Time) - e.A1)
			ce.Dur = us(e.A1)
		case trace.KindVMExit:
			// The matching resume draws the span; skip the edge.
			continue
		default:
			ce.Name = kindName(d, e.Kind)
			ce.Ph = "i"
			ce.Ts = us(uint64(e.Time))
			ce.S = "t"
		}
		ce.Args = map[string]string{"detail": detail(d, e)}
		out = append(out, ce)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(out) //nolint:errcheck
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, strings.TrimRight(format, "\n")+"\n", args...)
	os.Exit(1)
}
