// Command nova-stat renders a resource-accounting snapshot captured
// with `nova-run -stats` (or any program that calls AttachStats and
// writes the encoded snapshot). Four views:
//
//	nova-stat report run.stats               # summary table with rates
//	nova-stat report -filter vm0 run.stats   # only metrics naming vm0
//	nova-stat epochs -metric NAME run.stats  # one metric's virtual-time series
//	nova-stat json run.stats                 # full snapshot as JSON
//	nova-stat openmetrics run.stats          # OpenMetrics text format
//
// Everything printed derives from deterministic virtual-time data: two
// runs of the same workload produce identical reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"nova/internal/stat"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		fs := flag.NewFlagSet("report", flag.ExitOnError)
		filter := fs.String("filter", "", "only metrics whose name contains this substring")
		fs.Parse(os.Args[2:]) //nolint:errcheck
		report(load(fs), *filter)
	case "epochs":
		fs := flag.NewFlagSet("epochs", flag.ExitOnError)
		metric := fs.String("metric", "", "metric name (exact, including labels)")
		fs.Parse(os.Args[2:]) //nolint:errcheck
		epochs(load(fs), *metric)
	case "json":
		fs := flag.NewFlagSet("json", flag.ExitOnError)
		fs.Parse(os.Args[2:]) //nolint:errcheck
		b, err := load(fs).JSON()
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(b) //nolint:errcheck
	case "openmetrics":
		fs := flag.NewFlagSet("openmetrics", flag.ExitOnError)
		fs.Parse(os.Args[2:])                   //nolint:errcheck
		os.Stdout.Write(load(fs).OpenMetrics()) //nolint:errcheck
	default:
		usage()
	}
}

func usage() {
	fail("usage: nova-stat report [-filter S] FILE | epochs -metric NAME FILE | json FILE | openmetrics FILE")
}

// load decodes the snapshot named by the flag set's one positional
// argument.
func load(fs *flag.FlagSet) *stat.Data {
	if fs.NArg() != 1 {
		usage()
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	d, err := stat.Decode(b)
	if err != nil {
		fail("%v", err)
	}
	return d
}

func report(d *stat.Data, filter string) {
	m := d.Meta
	seconds := float64(d.FinalCycles) / (float64(m.FreqMHz) * 1e6)
	fmt.Printf("stats: %s @ %d MHz, %d CPU(s), epoch length %d cycles\n",
		m.Model, m.FreqMHz, m.NumCPUs, m.EpochLen)
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
		fail("epochs: -metric NAME is required")
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
			lo := c.Epoch * d.Meta.EpochLen
			fmt.Fprintf(w, "%d\t[%d,%d)\t%d\n", c.Epoch, lo, lo+d.Meta.EpochLen, c.Value)
		}
		w.Flush() //nolint:errcheck
		return
	}
	fail("epochs: no metric named %q (try `nova-stat report` to list names)", name)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
