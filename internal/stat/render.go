package stat

import (
	"bytes"
	"fmt"
	"strings"
)

// OpenMetrics renders the snapshot in the OpenMetrics text format:
// counters as `family_total`, gauges and samples as plain gauges,
// histograms as cumulative `_bucket{le=...}` series plus `_count` and
// `_sum`. Epoch cells are not rendered here (they are a simulation
// concept); use the nova-obs stat json or stat epochs view for the
// time series.
// Percentiles are deliberately NOT emitted here — OpenMetrics
// histograms carry buckets only, and scrapers derive quantiles
// themselves — keeping this output byte-compatible with older
// consumers; use `nova-obs stat report` (HistogramData.Quantile) for
// p50/p99/p999.
func (d *Data) OpenMetrics() []byte {
	var buf bytes.Buffer
	lastFamily := ""
	for i := range d.Metrics {
		m := &d.Metrics[i]
		family, labels := m.Family()
		if family != lastFamily {
			switch m.Kind {
			case "counter":
				fmt.Fprintf(&buf, "# TYPE %s counter\n", family)
			case "histogram":
				fmt.Fprintf(&buf, "# TYPE %s histogram\n", family)
			default:
				fmt.Fprintf(&buf, "# TYPE %s gauge\n", family)
			}
			lastFamily = family
		}
		switch m.Kind {
		case "counter":
			fmt.Fprintf(&buf, "%s_total%s %d\n", family, labels, m.Total)
		case "histogram":
			fmt.Fprintf(&buf, "%s_count%s %d\n", family, labels, m.Total)
			if m.Hist != nil {
				fmt.Fprintf(&buf, "%s_sum%s %d\n", family, labels, m.Hist.Sum)
				cum := uint64(0)
				for _, b := range m.Hist.Buckets {
					cum += b.Count
					fmt.Fprintf(&buf, "%s_bucket%s %d\n", family,
						withLabel(labels, "le", fmt.Sprintf("%d", b.Hi)), cum)
				}
				fmt.Fprintf(&buf, "%s_bucket%s %d\n", family,
					withLabel(labels, "le", "+Inf"), m.Hist.Count)
			}
		default: // gauge, sample
			fmt.Fprintf(&buf, "%s%s %d\n", family, labels, m.Total)
		}
	}
	buf.WriteString("# EOF\n")
	return buf.Bytes()
}

// withLabel merges one extra label into an existing `{...}` label block
// (or creates the block).
func withLabel(labels, key, value string) string {
	extra := key + `="` + value + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}
