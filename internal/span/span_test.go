package span

import (
	"bytes"
	"testing"

	"nova/internal/trace"
)

// TestNilSafety exercises every Recorder method on a nil receiver and
// on span ID 0: the contract is that instrumented code needs no
// enablement checks.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if id := r.Open(0, 10, ClassDisk, SegEmul, 1); id != 0 {
		t.Errorf("nil Open = %d, want 0", id)
	}
	r.Transition(0, 20, 1, SegIPC)
	r.Annotate(0, 20, 1, AnnotLBA, 42)
	r.Close(0, 30, 1, StatusOK)
	r.Begin(0, 1, SegIPC)
	r.End(0)
	if id, seg := r.Current(0); id != 0 || seg != 0 {
		t.Errorf("nil Current = (%d, %d), want (0, 0)", id, seg)
	}
	if r.Data() != nil {
		t.Error("nil Data should return nil")
	}

	// ID 0 is a no-op on a live recorder.
	live := New(1, 16)
	live.Transition(0, 10, 0, SegIPC)
	live.Annotate(0, 10, 0, AnnotLBA, 1)
	live.Close(0, 10, 0, StatusOK)
	live.Begin(0, 0, SegIPC)
	if n := len(live.Data().Events()); n != 0 {
		t.Errorf("ID-0 calls recorded %d events, want 0", n)
	}
	// Out-of-range CPUs are no-ops too.
	if id := live.Open(5, 10, ClassDisk, SegEmul, 0); id != 0 {
		t.Errorf("out-of-range CPU Open = %d, want 0", id)
	}
}

// TestActiveStack checks the per-CPU current-span stack used by the
// kernel portal path to find the enclosing request.
func TestActiveStack(t *testing.T) {
	r := New(2, 16)
	a := r.Open(0, 10, ClassDisk, SegEmul, 0)
	r.Begin(0, a, SegEmul)
	if id, seg := r.Current(0); id != a || seg != SegEmul {
		t.Fatalf("Current = (%d, %v), want (%d, emulation)", id, seg, a)
	}
	// Other CPU has its own stack.
	if id, _ := r.Current(1); id != 0 {
		t.Errorf("CPU 1 Current = %d, want 0", id)
	}
	// A transition of the current span updates its tracked segment, so
	// the restore after a nested portal call returns to the right one.
	r.Transition(0, 20, a, SegIPC)
	if _, seg := r.Current(0); seg != SegIPC {
		t.Errorf("after Transition, tracked seg = %v, want kernel-ipc", seg)
	}
	r.End(0)
	if id, _ := r.Current(0); id != 0 {
		t.Errorf("after End, Current = %d, want 0", id)
	}
	r.End(0) // pop of an empty stack is a no-op
}

// TestBuildSpansTelescoping drives a hand-written event sequence through
// the reconstruction and checks the core invariant: per-segment
// durations sum exactly to close minus open, with zero-width hops
// dropped and contiguous same-segment hops merged.
func TestBuildSpansTelescoping(t *testing.T) {
	r := New(1, 64)
	id := r.Open(0, 100, ClassDisk, SegEmul, 7)
	r.Transition(0, 130, id, SegIPC)
	r.Transition(0, 180, id, SegServer)
	r.Transition(0, 180, id, SegQueue) // zero-width server hop
	r.Annotate(0, 180, id, AnnotLBA, 4096)
	r.Transition(0, 500, id, SegEmul)
	r.Transition(0, 520, id, SegGuest)
	r.Close(0, 600, id, StatusOK)

	_, d, err := roundTrip(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	spans := BuildSpans(d)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Closed || s.Status != StatusOK || s.Detail != 7 {
		t.Fatalf("span = %+v, want closed OK detail=7", s)
	}
	if got := s.Duration(); got != 500 {
		t.Fatalf("Duration = %d, want 500", got)
	}
	var sum int64
	for _, v := range s.Segs {
		sum += v
	}
	if sum != int64(s.Duration()) {
		t.Errorf("segments sum to %d, want %d", sum, s.Duration())
	}
	want := map[Seg]int64{SegEmul: 50, SegIPC: 50, SegQueue: 320, SegGuest: 80}
	for seg, w := range want { // lookup-only over expectations; order-independent asserts
		if s.Segs[seg] != w {
			t.Errorf("Segs[%v] = %d, want %d", seg, s.Segs[seg], w)
		}
	}
	if s.Segs[SegServer] != 0 {
		t.Errorf("zero-width server hop charged %d cycles", s.Segs[SegServer])
	}
	// Path: emulation(30), kernel-ipc(50), queueing(320), emulation(20),
	// guest(80) — the zero-width server hop is dropped.
	if len(s.Path) != 5 {
		t.Fatalf("path has %d hops, want 5: %+v", len(s.Path), s.Path)
	}
	var pathSum int64
	for _, p := range s.Path {
		if p.Dur == 0 {
			t.Errorf("zero-width hop survived: %+v", p)
		}
		pathSum += p.Dur
	}
	if pathSum != int64(s.Duration()) {
		t.Errorf("path sums to %d, want %d", pathSum, s.Duration())
	}
	if len(s.Annot) != 1 || s.Annot[0].Key != AnnotLBA || s.Annot[0].Val != 4096 {
		t.Errorf("annotations = %+v, want one LBA=4096", s.Annot)
	}
}

// TestPercentileNearestRank pins the nearest-rank definition: the
// smallest value with at least q*N values at or below it.
func TestPercentileNearestRank(t *testing.T) {
	sorted := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want uint64
	}{
		{0.50, 50}, {0.99, 100}, {0.999, 100}, {0.10, 10}, {1.0, 100},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty Percentile should be 0")
	}
	one := []uint64{7}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if Percentile(one, q) != 7 {
			t.Errorf("single-value Percentile(%v) != 7", q)
		}
	}
}

// roundTrip writes the recorder's section body and reads it back.
func roundTrip(r *Recorder, cpus int) ([]byte, *Data, error) {
	var e trace.Enc
	r.Data().WriteBody(&e)
	return e.B, readBody(e.B, cpus), readErr(e.B, cpus)
}

func readBody(b []byte, cpus int) *Data { return ReadBody(&trace.Dec{B: b}, cpus) }

func readErr(b []byte, cpus int) error {
	dec := &trace.Dec{B: b}
	ReadBody(dec, cpus)
	return dec.End()
}

// TestEncodeDecodeRoundTrip checks that ReadBody inverts WriteBody and
// that encoding is deterministic.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := New(2, 32)
	a := r.Open(0, 10, ClassDisk, SegEmul, 1)
	b2 := r.Open(1, 15, ClassNetRX, SegServer, 64)
	r.Annotate(1, 15, b2, AnnotBytes, 64)
	r.Close(0, 50, a, StatusOK)
	// b2 stays open: the counters must still count it as opened.

	enc1, d, err := roundTrip(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc2, _, _ := roundTrip(r, 2)
	if !bytes.Equal(enc1, enc2) {
		t.Error("two encodes of the same recorder differ")
	}
	if d.Capacity != 32 || len(d.PerCPU) != 2 {
		t.Errorf("rings round-trip: capacity %d, %d CPUs", d.Capacity, len(d.PerCPU))
	}
	if d.Opened != 2 || d.Closed != 1 {
		t.Errorf("counters opened=%d closed=%d, want opened=2 closed=1", d.Opened, d.Closed)
	}
	if len(d.PerCPU[0]) != 3 || len(d.PerCPU[1]) != 3 {
		t.Fatalf("per-CPU record counts: %d/%d", len(d.PerCPU[0]), len(d.PerCPU[1]))
	}
	var e trace.Enc
	d.WriteBody(&e)
	if !bytes.Equal(e.B, enc1) {
		t.Error("a decoded section re-encodes differently")
	}

	// Corrupt inputs are rejected, not misparsed.
	if readErr(enc1[:len(enc1)-1], 2) == nil {
		t.Error("truncated section decoded")
	}
	if readErr(enc1, 3) == nil {
		t.Error("section decoded with a ring too many")
	}
	if readErr(append(append([]byte{}, enc1...), 0), 2) == nil {
		t.Error("trailing bytes decoded")
	}
}
