package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"nova/internal/hw"
)

// magic identifies a serialized trace (version 1).
const magic = "NOVATRC1"

// eventSize is the fixed on-disk size of one event record:
// time(8) + seq(8) + kind(1) + 4×arg(8).
const eventSize = 8 + 8 + 1 + 4*8

// Meta describes the run that produced a trace: the cost-model
// constants a renderer needs to decompose measured durations into the
// paper's Figure 8/9 boxes, plus the enum name tables so traces are
// self-describing.
type Meta struct {
	Model        string `json:"model"`
	FreqMHz      int    `json:"freq_mhz"`
	NumCPUs      int    `json:"num_cpus"`
	RingCapacity int    `json:"ring_capacity"`
	VPID         bool   `json:"vpid"`

	// Cost-model constants, in cycles. VMTransit is the effective
	// world-switch cost of the run (tagged-aware).
	SyscallEntryExit uint64 `json:"syscall_entry_exit"`
	VMTransit        uint64 `json:"vm_transit"`
	VMRead           uint64 `json:"vm_read"`
	TLBRefill        uint64 `json:"tlb_refill"`
	PageWalkLevel    uint64 `json:"page_walk_level"`
	CacheLineAccess  uint64 `json:"cache_line_access"`

	ExitReasons []string `json:"exit_reasons"`
	KindNames   []string `json:"kind_names"`
}

// NamedCount is one (name, count) pair in the metrics section.
type NamedCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
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

// RingStatus reports one per-CPU event ring's occupancy, so metrics
// consumers can tell whether the recorded window covers the whole run
// or only its tail (a full ring overwrites its oldest events).
type RingStatus struct {
	CPU         int    `json:"cpu"`
	Capacity    int    `json:"capacity"`
	Live        int    `json:"live"`
	Overwritten uint64 `json:"overwritten"`
}

// Metrics is the counters-and-histograms section of a trace.
type Metrics struct {
	Exits           []NamedCount  `json:"exits,omitempty"` // reason order, non-zero only
	VTLBMisses      uint64        `json:"vtlb_misses"`
	Rings           []RingStatus  `json:"rings,omitempty"` // CPU order
	IPCLatency      HistogramData `json:"ipc_latency"`
	DispatchLatency HistogramData `json:"dispatch_latency"`
	ExitLatency     HistogramData `json:"exit_latency"`
	VTLBFill        HistogramData `json:"vtlb_fill"`
}

// MetricsData snapshots the tracer's counters and histograms.
func (t *Tracer) MetricsData() Metrics {
	if t == nil {
		return Metrics{}
	}
	m := Metrics{
		VTLBMisses:      t.VTLBMisses,
		IPCLatency:      t.IPCLatency.Data(),
		DispatchLatency: t.DispatchLatency.Data(),
		ExitLatency:     t.ExitLatency.Data(),
		VTLBFill:        t.VTLBFill.Data(),
	}
	for r, n := range t.ExitCounts {
		if n == 0 {
			continue
		}
		name := fmt.Sprintf("reason-%d", r)
		if r < len(t.Meta.ExitReasons) {
			name = t.Meta.ExitReasons[r]
		}
		m.Exits = append(m.Exits, NamedCount{Name: name, Count: n})
	}
	for cpu, r := range t.rings {
		m.Rings = append(m.Rings, RingStatus{
			CPU: cpu, Capacity: r.Cap(), Live: r.Len(), Overwritten: r.Overwritten(),
		})
	}
	return m
}

// WriteTo serializes the trace: magic, meta JSON, per-CPU event rings,
// metrics JSON. Every section is deterministic — struct-based JSON
// (fixed field order) and fixed-size little-endian event records — so
// two runs from identical inputs serialize to identical bytes.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		return 0, fmt.Errorf("trace: nil tracer")
	}
	var buf bytes.Buffer
	buf.WriteString(magic)

	metaJSON, err := json.Marshal(t.Meta)
	if err != nil {
		return 0, err
	}
	WriteSection(&buf, metaJSON)

	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(t.rings)))
	buf.Write(tmp[:])
	for _, r := range t.rings {
		events := r.Events()
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(events)))
		binary.LittleEndian.PutUint64(hdr[4:], r.Overwritten())
		buf.Write(hdr[:])
		var rec [eventSize]byte
		for _, e := range events {
			binary.LittleEndian.PutUint64(rec[0:], uint64(e.Time))
			binary.LittleEndian.PutUint64(rec[8:], e.Seq)
			rec[16] = uint8(e.Kind)
			binary.LittleEndian.PutUint64(rec[17:], e.A0)
			binary.LittleEndian.PutUint64(rec[25:], e.A1)
			binary.LittleEndian.PutUint64(rec[33:], e.A2)
			binary.LittleEndian.PutUint64(rec[41:], e.A3)
			buf.Write(rec[:])
		}
	}

	metricsJSON, err := json.Marshal(t.MetricsData())
	if err != nil {
		return 0, err
	}
	WriteSection(&buf, metricsJSON)

	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Encode returns the serialized trace as a byte slice.
func (t *Tracer) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Hash returns the FNV-64a hash of the serialized trace. The
// determinism regression test compares this across runs: identical
// inputs must produce identical traces, not merely identical counts.
func (t *Tracer) Hash() uint64 {
	b, err := t.Encode()
	if err != nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// WriteSection appends one length-prefixed section (u32 LE length, then
// the body) to buf. The framing is shared by the trace (NOVATRC1) and
// profile (NOVAPRF1) file formats.
func WriteSection(buf *bytes.Buffer, b []byte) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b)))
	buf.Write(tmp[:])
	buf.Write(b)
}

// TraceData is a decoded trace.
type TraceData struct {
	Meta        Meta
	PerCPU      [][]Event // index = CPU, ordered by sequence
	Overwritten []uint64  // per CPU
	Metrics     Metrics
}

// Events returns all events merged into the (time, CPU, seq) order.
func (d *TraceData) Events() []Event { return MergeEvents(d.PerCPU) }

// Decode parses a serialized trace.
func Decode(b []byte) (*TraceData, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic (not a nova trace file)")
	}
	b = b[len(magic):]

	metaJSON, b, err := ReadSection(b)
	if err != nil {
		return nil, fmt.Errorf("trace: meta: %w", err)
	}
	d := &TraceData{}
	if err := json.Unmarshal(metaJSON, &d.Meta); err != nil {
		return nil, fmt.Errorf("trace: meta: %w", err)
	}

	if len(b) < 4 {
		return nil, fmt.Errorf("trace: truncated CPU count")
	}
	cpus := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if cpus < 0 || cpus > 1<<16 {
		return nil, fmt.Errorf("trace: implausible CPU count %d", cpus)
	}
	for cpu := 0; cpu < cpus; cpu++ {
		if len(b) < 12 {
			return nil, fmt.Errorf("trace: truncated ring header (cpu %d)", cpu)
		}
		count := int(binary.LittleEndian.Uint32(b))
		over := binary.LittleEndian.Uint64(b[4:])
		b = b[12:]
		if count < 0 || len(b) < count*eventSize {
			return nil, fmt.Errorf("trace: truncated ring (cpu %d)", cpu)
		}
		events := make([]Event, count)
		for i := range events {
			rec := b[i*eventSize:]
			events[i] = Event{
				Time: hw.Cycles(binary.LittleEndian.Uint64(rec[0:])),
				Seq:  binary.LittleEndian.Uint64(rec[8:]),
				CPU:  uint8(cpu),
				Kind: Kind(rec[16]),
				A0:   binary.LittleEndian.Uint64(rec[17:]),
				A1:   binary.LittleEndian.Uint64(rec[25:]),
				A2:   binary.LittleEndian.Uint64(rec[33:]),
				A3:   binary.LittleEndian.Uint64(rec[41:]),
			}
		}
		b = b[count*eventSize:]
		d.PerCPU = append(d.PerCPU, events)
		d.Overwritten = append(d.Overwritten, over)
	}

	metricsJSON, b, err := ReadSection(b)
	if err != nil {
		return nil, fmt.Errorf("trace: metrics: %w", err)
	}
	if err := json.Unmarshal(metricsJSON, &d.Metrics); err != nil {
		return nil, fmt.Errorf("trace: metrics: %w", err)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes", len(b))
	}
	return d, nil
}

// ReadSection splits one length-prefixed section (as written by
// WriteSection) off the front of b.
func ReadSection(b []byte) (section, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("truncated section length")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || len(b) < n {
		return nil, nil, fmt.Errorf("truncated section body")
	}
	return b[:n], b[n:], nil
}
