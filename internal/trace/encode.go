package trace

import "nova/internal/hw"

// Costs are the cost-model constants, in cycles, that the attribution
// pass decomposes measured durations with (the paper's Figure 8/9
// boxes). VMTransit is the run's effective world-switch cost, which
// depends on whether VPID tags the TLB.
type Costs struct {
	VPID             bool   `json:"vpid"`
	SyscallEntryExit uint64 `json:"syscall_entry_exit"`
	VMTransit        uint64 `json:"vm_transit"`
	VMRead           uint64 `json:"vm_read"`
	TLBRefill        uint64 `json:"tlb_refill"`
	PageWalkLevel    uint64 `json:"page_walk_level"`
	CacheLineAccess  uint64 `json:"cache_line_access"`
}

// BucketCount is one non-empty histogram bucket with its value range.
type BucketCount struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramData is the serialized form of a Histogram.
type HistogramData struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns the nearest-rank q-quantile derivable from the log2
// buckets: the upper bound of the bucket holding the ceil(q*Count)-th
// smallest observation, clamped to the observed [Min, Max]. The rank is
// exact (bucket counts are exact); only the value within the bucket is
// an upper bound, so p50/p99/p999 read from here never understate the
// tail. Returns 0 for an empty histogram.
func (d *HistogramData) Quantile(q float64) uint64 {
	if d == nil || d.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(d.Count))
	if float64(rank) < q*float64(d.Count) {
		rank++ // ceil without importing math
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range d.Buckets {
		cum += b.Count
		if cum >= rank {
			v := b.Hi
			if v > d.Max {
				v = d.Max
			}
			if v < d.Min {
				v = d.Min
			}
			return v
		}
	}
	return d.Max
}

// Data converts a histogram to its serialized form (non-empty buckets
// only, in value order).
func (h *Histogram) Data() HistogramData {
	d := HistogramData{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		d.Buckets = append(d.Buckets, BucketCount{Lo: lo, Hi: hi, Count: n})
	}
	return d
}

// Rings is the recorded content of one sink's per-CPU rings (the
// tracer's, or the span recorder's), the part of its file section both
// sinks share.
type Rings struct {
	Capacity    int
	PerCPU      [][]Event // index = CPU, oldest first
	Overwritten []uint64  // records dropped per CPU
}

// SnapshotRings copies the live events of rings.
func SnapshotRings(rings []*Ring) Rings {
	var d Rings
	for _, r := range rings {
		d.Capacity = r.Cap()
		d.PerCPU = append(d.PerCPU, r.Events())
		d.Overwritten = append(d.Overwritten, r.Overwritten())
	}
	return d
}

// Events returns all events merged across CPUs in the (time, CPU, seq)
// order.
func (d *Rings) Events() []Event { return mergeEvents(d.PerCPU) }

// recordSize is the encoded size of one ring record:
// time(8) + kind(1) + 4×arg(8). A record's CPU is its ring's, and its
// sequence number follows from the ring's overwrite count: the first
// surviving record's Seq equals Overwritten, and Seq has no gaps.
const recordSize = 8 + 1 + 4*8

// WriteBody appends the rings: the capacity, then per CPU the
// overwrite count and the live records.
func (d *Rings) WriteBody(e *Enc) {
	e.U32(uint32(d.Capacity))
	for cpu, events := range d.PerCPU {
		e.U64(d.Overwritten[cpu])
		e.U32(uint32(len(events)))
		for _, ev := range events {
			e.U64(uint64(ev.Time))
			e.U8(uint8(ev.Kind))
			e.U64(ev.A0)
			e.U64(ev.A1)
			e.U64(ev.A2)
			e.U64(ev.A3)
		}
	}
}

// ReadRings reads the rings of cpus CPUs back.
func ReadRings(d *Dec, cpus int) Rings {
	r := Rings{Capacity: int(d.U32())}
	for cpu := 0; cpu < cpus && d.Err == nil; cpu++ {
		over := d.U64()
		events := make([]Event, d.Count(recordSize))
		for i := range events {
			events[i] = Event{
				Seq:  over + uint64(i),
				Time: hw.Cycles(d.U64()),
				CPU:  uint8(cpu),
				Kind: Kind(d.U8()),
				A0:   d.U64(), A1: d.U64(), A2: d.U64(), A3: d.U64(),
			}
		}
		r.PerCPU = append(r.PerCPU, events)
		r.Overwritten = append(r.Overwritten, over)
	}
	return r
}

// Data is the trace section of an observability file: the cost
// constants and the rings.
type Data struct {
	Costs Costs
	Rings
}

// Data snapshots the tracer; nil when tracing is off.
func (t *Tracer) Data() *Data {
	if t == nil {
		return nil
	}
	return &Data{Costs: t.Costs, Rings: SnapshotRings(t.rings)}
}

// WriteBody appends the trace section body.
func (d *Data) WriteBody(e *Enc) {
	e.JSON(d.Costs)
	d.Rings.WriteBody(e)
}

// ReadBody reads a trace section body of cpus rings.
func ReadBody(dec *Dec, cpus int) *Data {
	d := &Data{}
	dec.JSON(&d.Costs)
	d.Rings = ReadRings(dec, cpus)
	return d
}
