package bench

import (
	"sort"

	"nova/internal/span"
)

// LatencyClass is one request class's virtual-time latency tail in an
// experiment's Latency block: exact nearest-rank percentiles over every
// completed request of every run the experiment performed, plus the
// critical-path segment totals. All values are simulated cycles, so the
// block is bit-stable across hosts and compared strictly by
// `nova-bench -compare`.
type LatencyClass struct {
	Class string `json:"class"`
	Count int    `json:"count"`
	Min   uint64 `json:"min"`
	Mean  uint64 `json:"mean"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
	Max   uint64 `json:"max"`

	Segs []SegCycles `json:"segs,omitempty"`
}

// SegCycles is one critical-path segment's total over a class.
type SegCycles struct {
	Seg    string `json:"seg"`
	Cycles int64  `json:"cycles"`
}

// latencyAcc accumulates request spans across an experiment's runs.
type latencyAcc struct {
	durs [span.NumClasses][]uint64
	segs [span.NumClasses][span.NumSegs]int64
}

// add folds one run's recorded spans into the accumulator. A nil
// section (spans not attached) is a no-op.
func (a *latencyAcc) add(d *span.Data) {
	if d == nil {
		return
	}
	for _, s := range span.BuildSpans(d) {
		if !s.Closed || int(s.Class) >= int(span.NumClasses) {
			continue
		}
		a.durs[s.Class] = append(a.durs[s.Class], s.Duration())
		for i, v := range s.Segs {
			a.segs[s.Class][i] += v
		}
	}
}

// block renders the accumulated spans as the experiment's Latency
// block, classes in class order, empty classes omitted.
func (a *latencyAcc) block() []LatencyClass {
	var out []LatencyClass
	for c := span.Class(0); c < span.NumClasses; c++ {
		ds := a.durs[c]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum uint64
		for _, v := range ds {
			sum += v
		}
		lc := LatencyClass{
			Class: c.String(), Count: len(ds),
			Min: ds[0], Max: ds[len(ds)-1], Mean: sum / uint64(len(ds)),
			P50:  span.Percentile(ds, 0.50),
			P99:  span.Percentile(ds, 0.99),
			P999: span.Percentile(ds, 0.999),
		}
		for i := span.Seg(0); i < span.NumSegs; i++ {
			if a.segs[c][i] != 0 {
				lc.Segs = append(lc.Segs, SegCycles{Seg: i.String(), Cycles: a.segs[c][i]})
			}
		}
		out = append(out, lc)
	}
	return out
}
