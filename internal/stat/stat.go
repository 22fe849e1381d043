// Package stat is the aggregate resource-accounting layer of the
// simulation: a deterministic metrics registry of counters, gauges and
// log2 histograms, bucketed into virtual-time epochs, threaded through
// the microhypervisor, the user-level VMMs, the device servers and the
// hardware device models.
//
// The design contract is the same zero perturbation the trace and prof
// layers obey: recording a metric must never charge simulated cycles,
// mutate guest-visible state, or read the wall clock. Timestamps are
// virtual time (hw.Cycles) from the per-CPU clocks the simulation
// already maintains, so a run with stats enabled produces bit-identical
// cycle totals to a run without, and two stats-enabled runs of the same
// guest produce byte-identical encoded snapshots. The nova-vet
// `tracepure` analyzer enforces this statically; the A/B identity test
// in internal/guest enforces it end to end.
//
// Counters accumulate into per-epoch cells (epoch = virtual time /
// EpochLen), giving every run a bit-identical time series without any
// background flusher: cells are appended as time advances, and a value
// arriving from a CPU whose clock lags another is inserted at its
// ordered position. Maps are used as lookup indexes only; every
// emission and encoding path walks slices in a deterministic order.
package stat

import (
	"sort"
	"strings"

	"nova/internal/hw"
	"nova/internal/trace"
)

// Kind classifies a metric.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically accumulating count; epochs carry
	// the per-epoch increments.
	KindCounter Kind = iota
	// KindGauge is a sampled level (queue depth …); epochs carry the
	// per-epoch maximum.
	KindGauge
	// KindHistogram is a log2 latency histogram (the trace package's
	// bucket math); epochs carry the per-epoch observation counts.
	KindHistogram
	// KindSample is a pull-mode gauge read once at snapshot time from a
	// registered sampler (live object counts, device totals).
	KindSample
)

// kindNames is indexed by Kind for the encoded form.
var kindNames = [...]string{"counter", "gauge", "histogram", "sample"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// EpochCell is one epoch's worth of a metric: the epoch index (virtual
// time / EpochLen) and the value accumulated within it.
type EpochCell struct {
	Epoch uint64 `json:"e"`
	Value uint64 `json:"v"`
}

// Metric is one named time series. All mutation goes through the
// nil-safe handle types (Counter, Gauge, Histogram); the fields are
// read by Snapshot.
type Metric struct {
	name     string
	kind     Kind
	epochLen hw.Cycles

	total uint64 // counters: sum; gauges: last set value; histograms: observation count
	max   uint64 // gauges only: maximum ever set
	hist  trace.Histogram

	epochs []EpochCell // ordered by Epoch, ascending
}

// bump accumulates n into the cell for now's epoch. Cells stay ordered:
// the common case appends to or increments the last cell; a timestamp
// from a lagging CPU clock walks back to its ordered position.
func (m *Metric) bump(now hw.Cycles, n uint64, isMax bool) {
	var e uint64
	if m.epochLen > 0 {
		e = uint64(now / m.epochLen)
	}
	i := len(m.epochs) - 1
	for i >= 0 && m.epochs[i].Epoch > e {
		i--
	}
	if i >= 0 && m.epochs[i].Epoch == e {
		if isMax {
			if n > m.epochs[i].Value {
				m.epochs[i].Value = n
			}
		} else {
			m.epochs[i].Value += n
		}
		return
	}
	m.epochs = append(m.epochs, EpochCell{})
	copy(m.epochs[i+2:], m.epochs[i+1:])
	m.epochs[i+1] = EpochCell{Epoch: e, Value: n}
}

// Counter is a nil-safe handle on a counter metric. The zero value is
// a no-op, so instrumented code needs no enablement checks.
type Counter struct{ m *Metric }

// Add accumulates n at virtual time now.
func (c Counter) Add(now hw.Cycles, n uint64) {
	if c.m == nil {
		return
	}
	c.m.total += n
	c.m.bump(now, n, false)
}

// Gauge is a nil-safe handle on a gauge metric. The zero value is a
// no-op.
type Gauge struct{ m *Metric }

// Set records the level v at virtual time now. The epoch cell keeps
// the maximum level seen within the epoch.
func (g Gauge) Set(now hw.Cycles, v uint64) {
	if g.m == nil {
		return
	}
	g.m.total = v
	if v > g.m.max {
		g.m.max = v
	}
	g.m.bump(now, v, true)
}

// Histogram is a nil-safe handle on a log2 histogram metric. The zero
// value is a no-op.
type Histogram struct{ m *Metric }

// Observe records one value at virtual time now.
func (h Histogram) Observe(now hw.Cycles, v uint64) {
	if h.m == nil {
		return
	}
	h.m.total++
	h.m.hist.Observe(v)
	h.m.bump(now, 1, false)
}

// sampler is one pull-mode metric: a closure read at snapshot time.
type sampler struct {
	name string
	fn   func() uint64
}

// Registry is the metrics sink for one machine. All methods are
// nil-safe so instrumented code needs no enablement checks: a nil
// *Registry means stats are off and every call is a cheap no-op.
type Registry struct {
	epochLen hw.Cycles

	metrics  []*Metric          // registration order
	index    map[string]*Metric // lookup only — never ranged
	samplers []sampler          // registration order

	fold foldState
}

// DefaultEpochLen is the epoch length used when none is given: one
// million virtual cycles (~0.4 ms at the paper's 2.67 GHz).
const DefaultEpochLen hw.Cycles = 1_000_000

// New creates a registry with the given epoch length (<= 0 selects
// DefaultEpochLen).
func New(epochLen hw.Cycles) *Registry {
	if epochLen <= 0 {
		epochLen = DefaultEpochLen
	}
	r := &Registry{
		epochLen: epochLen,
		index:    make(map[string]*Metric),
	}
	r.initFold()
	return r
}

// metric returns the named metric, creating it with the given kind on
// first use. A name registered twice returns the same metric (the kind
// of the first registration wins).
func (r *Registry) metric(name string, kind Kind) *Metric {
	if m, ok := r.index[name]; ok {
		return m
	}
	m := &Metric{name: name, kind: kind, epochLen: r.epochLen}
	r.metrics = append(r.metrics, m)
	r.index[name] = m
	return m
}

// Counter returns a handle on the named counter, creating it on first
// use. On a nil registry the handle is a no-op.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{m: r.metric(name, KindCounter)}
}

// Gauge returns a handle on the named gauge.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{m: r.metric(name, KindGauge)}
}

// Histogram returns a handle on the named histogram.
func (r *Registry) Histogram(name string) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{m: r.metric(name, KindHistogram)}
}

// RegisterSampler registers a pull-mode metric: fn is invoked once per
// Snapshot and must be a pure read of host-side state (live object
// counts, device model totals). It must not charge cycles or mutate
// anything.
func (r *Registry) RegisterSampler(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.samplers = append(r.samplers, sampler{name: name, fn: fn})
}

// Name formats a metric name as family{k="v",...} from alternating
// key/value pairs. The convention keeps one flat, sortable name per
// series while staying parseable by the OpenMetrics renderer.
func Name(family string, kv ...string) string {
	if len(kv) < 2 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot captures the registry's current state: samplers are read,
// metrics are sorted by name, and all-zero counters and histograms are
// dropped (a vCPU registers a counter per exit reason; the reasons it
// never took would otherwise bloat every snapshot). The registry stays
// live — snapshotting does not reset anything.
func (r *Registry) Snapshot(finalCycles hw.Cycles) *Data {
	if r == nil {
		return nil
	}
	d := &Data{EpochLen: uint64(r.epochLen), FinalCycles: uint64(finalCycles)}
	for _, m := range r.metrics {
		if (m.kind == KindCounter || m.kind == KindHistogram) && m.total == 0 {
			continue
		}
		md := MetricData{
			Name:   m.name,
			Kind:   m.kind.String(),
			Total:  m.total,
			Epochs: append([]EpochCell(nil), m.epochs...),
		}
		if m.kind == KindGauge {
			md.Max = m.max
		}
		if m.kind == KindHistogram {
			h := m.hist.Data()
			md.Hist = &h
		}
		d.Metrics = append(d.Metrics, md)
	}
	for _, s := range r.samplers {
		d.Metrics = append(d.Metrics, MetricData{
			Name:  s.name,
			Kind:  KindSample.String(),
			Total: s.fn(),
		})
	}
	sort.Slice(d.Metrics, func(i, j int) bool { return d.Metrics[i].Name < d.Metrics[j].Name })
	return d
}
