package trace

import (
	"reflect"
	"strings"
	"testing"

	"nova/internal/hw"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(0, 4)
	if r.Cap() != 4 || r.Len() != 0 || r.Overwritten() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d over=%d", r.Cap(), r.Len(), r.Overwritten())
	}
	for i := 0; i < 10; i++ {
		r.Push(hw.Cycles(100+i), KindPIO, uint64(i), 0, 0, 0)
	}
	if r.Len() != 4 {
		t.Errorf("len after wrap = %d, want 4", r.Len())
	}
	if r.Overwritten() != 6 {
		t.Errorf("overwritten = %d, want 6", r.Overwritten())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("Events() returned %d events", len(ev))
	}
	for i, e := range ev {
		// Oldest-first, and the first surviving Seq equals Overwritten.
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.A0 != wantSeq || e.Time != hw.Cycles(100+6+i) {
			t.Errorf("event %d = seq %d a0 %d time %d, want seq %d", i, e.Seq, e.A0, e.Time, wantSeq)
		}
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0, 0)
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want 1", r.Cap())
	}
	r.Push(1, KindPIO, 7, 0, 0, 0)
	r.Push(2, KindPIO, 8, 0, 0, 0)
	ev := r.Events()
	if len(ev) != 1 || ev[0].A0 != 8 || r.Overwritten() != 1 {
		t.Errorf("events=%v overwritten=%d", ev, r.Overwritten())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11}, {1025, 11},
		{1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		// The value must fall inside its own bucket's bounds.
		lo, hi := BucketBounds(BucketIndex(c.v))
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside bucket bounds [%d, %d]", c.v, lo, hi)
		}
	}
	// Buckets tile the full u64 range with no gaps or overlaps.
	if lo, hi := BucketBounds(0); lo != 0 || hi != 0 {
		t.Errorf("bucket 0 = [%d, %d], want [0, 0]", lo, hi)
	}
	prevHi := uint64(0)
	for i := 1; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi+1 {
			t.Errorf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
		if i < NumBuckets-1 && hi < lo {
			t.Errorf("bucket %d: hi %d < lo %d", i, hi, lo)
		}
		prevHi = hi
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{5, 0, 1000, 5} {
		h.Observe(v)
	}
	if h.Count != 4 || h.Sum != 1010 || h.Min != 0 || h.Max != 1000 {
		t.Errorf("count=%d sum=%d min=%d max=%d", h.Count, h.Sum, h.Min, h.Max)
	}
	if h.Buckets[0] != 1 || h.Buckets[3] != 2 || h.Buckets[10] != 1 {
		t.Errorf("buckets: %v", h.Buckets[:12])
	}
	d := h.Data()
	if len(d.Buckets) != 3 {
		t.Fatalf("Data() kept %d buckets, want 3 non-empty", len(d.Buckets))
	}
	if d.Buckets[1].Lo != 4 || d.Buckets[1].Hi != 7 || d.Buckets[1].Count != 2 {
		t.Errorf("bucket for 5s: %+v", d.Buckets[1])
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, 1, KindVMExit, 1, 2, 3, 4)
	if tr.Data() != nil {
		t.Error("nil tracer returned a section")
	}
}

func TestMergeEventsOrder(t *testing.T) {
	tr := New(Costs{}, 2, 8)
	tr.Emit(0, 10, KindPIO, 0, 0, 0, 0)
	tr.Emit(1, 5, KindPIO, 1, 0, 0, 0)
	tr.Emit(0, 20, KindPIO, 2, 0, 0, 0)
	tr.Emit(1, 20, KindPIO, 3, 0, 0, 0)
	// Out-of-range CPUs are dropped, not panics.
	tr.Emit(2, 1, KindPIO, 9, 0, 0, 0)
	tr.Emit(-1, 1, KindPIO, 9, 0, 0, 0)
	var got []uint64
	for _, e := range tr.Data().Events() {
		got = append(got, e.A0)
	}
	// Time order; CPU 0 before CPU 1 at equal times.
	if !reflect.DeepEqual(got, []uint64{1, 0, 2, 3}) {
		t.Errorf("merged order %v", got)
	}
}

// roundTrip writes d's section body and reads it back.
func roundTrip(t *testing.T, d *Data, cpus int) ([]byte, *Data, error) {
	t.Helper()
	var e Enc
	d.WriteBody(&e)
	dec := &Dec{B: e.B}
	got := ReadBody(dec, cpus)
	return e.B, got, dec.End()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	costs := Costs{
		VPID: true, SyscallEntryExit: 124, VMTransit: 1016, VMRead: 44,
		TLBRefill: 310, PageWalkLevel: 30, CacheLineAccess: 15,
	}
	tr := New(costs, 2, 2)
	tr.Emit(0, 100, KindVMExit, 1, 0x8000, 2, 0)
	tr.Emit(0, 200, KindIPCReply, 4, 90, 1, 0)
	tr.Emit(0, 300, KindVMResume, 1, 200, 2, 0) // wraps: drops the first
	tr.Emit(1, 150, KindVTLBFill, 0x1000, 500, 2, 0)
	tr.Emit(1, 160, KindSchedRan, 2, 999, 0, 0) // aggregate-only: no record

	b, d, err := roundTrip(t, tr.Data(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Costs != tr.Costs || d.Capacity != 2 {
		t.Errorf("costs/capacity mismatch:\n got %+v, %d\nwant %+v, 2", d.Costs, d.Capacity, tr.Costs)
	}
	if len(d.PerCPU) != 2 || len(d.PerCPU[0]) != 2 || len(d.PerCPU[1]) != 1 {
		t.Fatalf("per-CPU shapes: %d/%d", len(d.PerCPU[0]), len(d.PerCPU[1]))
	}
	if d.Overwritten[0] != 1 || d.Overwritten[1] != 0 {
		t.Errorf("overwritten = %v", d.Overwritten)
	}
	// Sequence numbers and CPUs are not stored; they come back from
	// the ring's overwrite count and position.
	if !reflect.DeepEqual(d.PerCPU[0], tr.rings[0].Events()) {
		t.Errorf("cpu0 events: got %+v want %+v", d.PerCPU[0], tr.rings[0].Events())
	}
	if !reflect.DeepEqual(d.Events(), tr.Data().Events()) {
		t.Error("merged events differ after round trip")
	}

	// Serialization is deterministic byte for byte, and a decoded
	// section re-encodes to the same bytes.
	b2, _, _ := roundTrip(t, tr.Data(), 2)
	b3, _, _ := roundTrip(t, d, 2)
	if string(b) != string(b2) || string(b) != string(b3) {
		t.Error("encodings of the same trace differ")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	tr := New(Costs{}, 1, 4)
	tr.Emit(0, 1, KindPIO, 0, 0, 0, 0)
	b, _, err := roundTrip(t, tr.Data(), 1)
	if err != nil {
		t.Fatal(err)
	}
	read := func(b []byte) error {
		dec := &Dec{B: b}
		ReadBody(dec, 1)
		return dec.End()
	}
	if err := read(b[:len(b)-3]); err == nil {
		t.Error("truncated trace accepted")
	}
	if err := read(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	for _, cut := range []int{0, 3, 10} {
		if err := read(b[:cut]); err == nil {
			t.Errorf("prefix of %d bytes accepted", cut)
		}
	}
	// Costs JSON with a space is not the canonical encoding.
	var e Enc
	e.Bytes([]byte(` {"vpid":false,"syscall_entry_exit":0,"vm_transit":0,"vm_read":0,"tlb_refill":0,"page_walk_level":0,"cache_line_access":0}`))
	if err := read(e.B); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("non-canonical costs: %v", err)
	}
}
