package span

import (
	"math"
	"sort"

	"nova/internal/hw"
)

// PathSeg is one hop of a span's critical path: the span was in Seg
// from Start for Dur cycles. Dur is signed so that per-segment sums
// telescope exactly to close minus open even across CPU-crossing marks
// (per-CPU clocks are only loosely synchronized).
type PathSeg struct {
	Seg   Seg       `json:"-"`
	Name  string    `json:"seg"`
	Start hw.Cycles `json:"start"`
	Dur   int64     `json:"dur"`
}

// Annot is one decoded annotation.
type Annot struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// Span is one reconstructed request.
type Span struct {
	ID     ID        `json:"id"`
	Class  Class     `json:"-"`
	Name   string    `json:"class"`
	Detail uint64    `json:"detail"`
	CPU    uint8     `json:"cpu"`
	Open   hw.Cycles `json:"open"`
	End    hw.Cycles `json:"close"`
	Closed bool      `json:"closed"`
	Status uint64    `json:"status"`

	// Segs accumulates duration per segment; Path is the ordered
	// critical-path decomposition (consecutive same-segment hops are
	// merged). For a closed span, the Segs entries sum exactly to
	// End-Open.
	Segs  [NumSegs]int64 `json:"-"`
	Path  []PathSeg      `json:"path,omitempty"`
	Annot []Annot        `json:"annot,omitempty"`

	lastSeg  Seg
	lastTime hw.Cycles
	hasSeg   bool
}

// Duration returns the end-to-end latency of a closed span.
func (s *Span) Duration() uint64 { return uint64(s.End - s.Open) }

// BuildSpans reconstructs spans from a span section, in span-ID
// order. Spans whose open record was overwritten by a wrapped ring are
// dropped (their decomposition would be incomplete).
func BuildSpans(d *Data) []*Span {
	byID := map[ID]*Span{} // lookup index only; iteration uses the slice
	var spans []*Span
	for _, e := range d.Events() {
		id := ID(e.A0)
		k := Kind(e.Kind)
		if k == KindOpen {
			s := &Span{
				ID: id, Class: Class(e.A1), Name: Class(e.A1).String(),
				Detail: e.A2, CPU: e.CPU, Open: e.Time,
			}
			byID[id] = s
			spans = append(spans, s)
			continue
		}
		s := byID[id]
		if s == nil {
			continue // open record lost to a ring wrap
		}
		switch k {
		case KindSeg:
			s.mark(e.Time, Seg(e.A1))
		case KindAnnotate:
			s.Annot = append(s.Annot, Annot{Key: e.A1, Val: e.A2})
		case KindClose:
			s.closeAt(e.Time, e.A1)
		default:
			// KindNone marks an empty record; KindOpen is handled above.
		}
	}
	return spans
}

// mark accumulates the previous segment up to now and switches to seg.
func (s *Span) mark(now hw.Cycles, seg Seg) {
	if s.Closed || int(seg) >= int(NumSegs) {
		return
	}
	s.flush(now)
	if s.hasSeg && len(s.Path) > 0 && s.Path[len(s.Path)-1].Seg == seg && s.Path[len(s.Path)-1].Start+hw.Cycles(s.Path[len(s.Path)-1].Dur) == now {
		// Re-entering the segment with no gap: extend the last hop
		// instead of appending a zero-width one.
	} else {
		s.Path = append(s.Path, PathSeg{Seg: seg, Name: seg.String(), Start: now})
	}
	s.lastSeg, s.lastTime, s.hasSeg = seg, now, true
}

// flush adds the time since the last mark to the current segment.
func (s *Span) flush(now hw.Cycles) {
	if !s.hasSeg {
		return
	}
	d := int64(now) - int64(s.lastTime)
	s.Segs[s.lastSeg] += d
	if len(s.Path) > 0 && s.Path[len(s.Path)-1].Seg == s.lastSeg {
		s.Path[len(s.Path)-1].Dur += d
	}
	s.lastTime = now
}

// closeAt finalizes the span.
func (s *Span) closeAt(now hw.Cycles, status uint64) {
	if s.Closed {
		return
	}
	s.flush(now)
	s.End, s.Closed, s.Status = now, true, status
	// Drop zero-width hops left by immediate transitions, then merge
	// contiguous hops of the same segment that they had split.
	out := s.Path[:0]
	for _, p := range s.Path {
		if p.Dur == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Seg == p.Seg && out[n-1].Start+hw.Cycles(out[n-1].Dur) == p.Start {
			out[n-1].Dur += p.Dur
			continue
		}
		out = append(out, p)
	}
	s.Path = out
}

// SegTotal is one segment's aggregate over a request class.
type SegTotal struct {
	Seg   string `json:"seg"`
	Total int64  `json:"total"`
	Avg   int64  `json:"avg"`
}

// ClassReport aggregates one request class: exact nearest-rank
// percentiles over every completed request plus the per-segment
// critical-path totals.
type ClassReport struct {
	Class  string `json:"class"`
	Count  int    `json:"count"`  // closed spans
	Open   int    `json:"open"`   // spans never closed (excluded below)
	Failed int    `json:"failed"` // closed with StatusError

	Min  uint64 `json:"min"`
	Mean uint64 `json:"mean"`
	P50  uint64 `json:"p50"`
	P99  uint64 `json:"p99"`
	P999 uint64 `json:"p999"`
	Max  uint64 `json:"max"`

	Segs []SegTotal `json:"segs,omitempty"`
}

// Report is the span report of nova-obs: per-class latency tails and
// critical-path decomposition.
type Report struct {
	FreqMHz int           `json:"freq_mhz"`
	Opened  uint64        `json:"opened"`
	Closed  uint64        `json:"closed"`
	Classes []ClassReport `json:"classes"`
}

// Percentile returns the exact nearest-rank percentile of sorted
// (ascending) values: the smallest value with at least q·N values at or
// below it. Exact because it operates on every completed request's
// duration, not on histogram buckets.
func Percentile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// BuildReport aggregates reconstructed spans into the per-class report.
func BuildReport(d *Data, spans []*Span, freqMHz int) *Report {
	rep := &Report{FreqMHz: freqMHz, Opened: d.Opened, Closed: d.Closed}
	var durs [NumClasses][]uint64
	var segs [NumClasses][NumSegs]int64
	var open, failed [NumClasses]int
	for _, s := range spans {
		c := s.Class
		if int(c) >= int(NumClasses) {
			continue
		}
		if !s.Closed {
			open[c]++
			continue
		}
		if s.Status == StatusError {
			failed[c]++
		}
		durs[c] = append(durs[c], s.Duration())
		for i, v := range s.Segs {
			segs[c][i] += v
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		ds := durs[c]
		if len(ds) == 0 && open[c] == 0 {
			continue
		}
		cr := ClassReport{Class: c.String(), Count: len(ds), Open: open[c], Failed: failed[c]}
		if len(ds) > 0 {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			var sum uint64
			for _, v := range ds {
				sum += v
			}
			cr.Min = ds[0]
			cr.Max = ds[len(ds)-1]
			cr.Mean = sum / uint64(len(ds))
			cr.P50 = Percentile(ds, 0.50)
			cr.P99 = Percentile(ds, 0.99)
			cr.P999 = Percentile(ds, 0.999)
			for i := Seg(0); i < NumSegs; i++ {
				if segs[c][i] == 0 {
					continue
				}
				cr.Segs = append(cr.Segs, SegTotal{
					Seg: i.String(), Total: segs[c][i], Avg: segs[c][i] / int64(len(ds)),
				})
			}
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}
