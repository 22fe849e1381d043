package stat

import (
	"strings"

	"nova/internal/trace"
)

// MetricData is the serialized form of one metric.
type MetricData struct {
	Name   string               `json:"name"`
	Kind   string               `json:"kind"`
	Total  uint64               `json:"total"`
	Max    uint64               `json:"max,omitempty"`
	Hist   *trace.HistogramData `json:"hist,omitempty"`
	Epochs []EpochCell          `json:"epochs,omitempty"`
}

// Family splits the metric name into its family and label part:
// `kernel_vmexits{vm="vm0"}` → (`kernel_vmexits`, `{vm="vm0"}`).
func (m *MetricData) Family() (family, labels string) {
	if i := strings.IndexByte(m.Name, '{'); i >= 0 {
		return m.Name[:i], m.Name[i:]
	}
	return m.Name, ""
}

// Data is the stat section of an observability file: a snapshot of
// the registry.
type Data struct {
	EpochLen    uint64       `json:"epoch_len"`
	FinalCycles uint64       `json:"final_cycles"`
	Metrics     []MetricData `json:"metrics"` // sorted by name
}

// WriteBody appends the stat section body, the snapshot as JSON:
// struct-based (fixed field order) with the metrics name-sorted, so two
// snapshots of identical runs write identical bytes.
func (d *Data) WriteBody(e *trace.Enc) { e.JSON(d) }

// ReadBody reads a stat section body.
func ReadBody(dec *trace.Dec) *Data {
	d := &Data{}
	dec.JSON(d)
	return d
}
