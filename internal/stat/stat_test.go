package stat

import (
	"bytes"
	"strings"
	"testing"

	"nova/internal/hw"
	"nova/internal/trace"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every call on a nil registry and on zero-value handles must be a
	// no-op, so instrumented code needs no enablement checks.
	r.Counter("a").Add(1, 1)
	r.Gauge("b").Set(2, 2)
	r.Histogram("c").Observe(3, 3)
	r.RegisterSampler("e", func() uint64 { return 5 })
	if r.Snapshot(100) != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var c Counter
	var g Gauge
	var h Histogram
	c.Add(1, 1)
	g.Set(1, 1)
	h.Observe(1, 1)
}

func TestEpochBucketing(t *testing.T) {
	r := New(100)
	c := r.Counter("x")
	c.Add(10, 1)  // epoch 0
	c.Add(99, 2)  // epoch 0
	c.Add(100, 3) // epoch 1
	c.Add(350, 4) // epoch 3 (epoch 2 empty: no cell)
	d := r.Snapshot(400)
	if len(d.Metrics) != 1 {
		t.Fatalf("want 1 metric, got %d", len(d.Metrics))
	}
	m := d.Metrics[0]
	if m.Total != 10 {
		t.Errorf("total = %d, want 10", m.Total)
	}
	want := []EpochCell{{0, 3}, {1, 3}, {3, 4}}
	if len(m.Epochs) != len(want) {
		t.Fatalf("epochs = %v, want %v", m.Epochs, want)
	}
	for i, w := range want {
		if m.Epochs[i] != w {
			t.Errorf("epoch[%d] = %v, want %v", i, m.Epochs[i], w)
		}
	}
}

func TestEpochOutOfOrderInsert(t *testing.T) {
	// A lagging CPU clock delivers an earlier epoch after later ones
	// exist; the cell must land at its ordered position.
	r := New(100)
	c := r.Counter("x")
	c.Add(500, 1) // epoch 5
	c.Add(150, 2) // epoch 1, arrives late
	c.Add(520, 3) // epoch 5 again
	c.Add(160, 4) // epoch 1 again, merges into the existing cell
	m := r.Snapshot(600).Metrics[0]
	want := []EpochCell{{1, 6}, {5, 4}}
	if len(m.Epochs) != len(want) {
		t.Fatalf("epochs = %v, want %v", m.Epochs, want)
	}
	for i, w := range want {
		if m.Epochs[i] != w {
			t.Errorf("epoch[%d] = %v, want %v", i, m.Epochs[i], w)
		}
	}
}

func TestGaugeEpochMax(t *testing.T) {
	r := New(100)
	g := r.Gauge("depth")
	g.Set(10, 3)
	g.Set(20, 7)
	g.Set(30, 5)
	g.Set(150, 2)
	m := r.Snapshot(200).Metrics[0]
	if m.Total != 2 || m.Max != 7 {
		t.Errorf("last=%d max=%d, want 2/7", m.Total, m.Max)
	}
	want := []EpochCell{{0, 7}, {1, 2}}
	for i, w := range want {
		if m.Epochs[i] != w {
			t.Errorf("epoch[%d] = %v, want %v", i, m.Epochs[i], w)
		}
	}
}

func TestZeroCountersDropped(t *testing.T) {
	r := New(100)
	r.Counter("never")
	r.Histogram("empty")
	g := r.Gauge("level") // gauges stay even at zero
	g.Set(1, 0)
	d := r.Snapshot(10)
	if len(d.Metrics) != 1 || d.Metrics[0].Name != "level" {
		t.Fatalf("want only the gauge, got %+v", d.Metrics)
	}
}

func TestSamplers(t *testing.T) {
	r := New(100)
	live := uint64(7)
	r.RegisterSampler("objects", func() uint64 { return live })
	d := r.Snapshot(10)
	if len(d.Metrics) != 1 || d.Metrics[0].Kind != "sample" || d.Metrics[0].Total != 7 {
		t.Fatalf("sampler not captured: %+v", d.Metrics)
	}
	live = 9
	if got := r.Snapshot(20).Metrics[0].Total; got != 9 {
		t.Errorf("sampler re-read = %d, want 9", got)
	}
}

func TestName(t *testing.T) {
	if got := Name("fam"); got != "fam" {
		t.Errorf("Name(fam) = %q", got)
	}
	if got := Name("fam", "vm", "vm0", "reason", "io"); got != `fam{vm="vm0",reason="io"}` {
		t.Errorf("Name = %q", got)
	}
}

// encode writes a stat section body.
func encode(d *Data) []byte {
	var e trace.Enc
	d.WriteBody(&e)
	return e.B
}

// decode reads a stat section body.
func decode(b []byte) (*Data, error) {
	dec := &trace.Dec{B: b}
	d := ReadBody(dec)
	return d, dec.End()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := New(100)
	r.Counter(Name("exits", "vm", "a")).Add(10, 3)
	r.Gauge("depth").Set(20, 5)
	r.Histogram("lat").Observe(30, 1234)
	r.RegisterSampler("objs", func() uint64 { return 2 })
	b := encode(r.Snapshot(500))
	got, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalCycles != 500 || got.EpochLen != 100 || len(got.Metrics) != 4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !bytes.Equal(b, encode(got)) {
		t.Error("re-encode is not byte-identical")
	}
	// Corrupted inputs decline instead of panicking.
	if _, err := decode(b[:4]); err == nil {
		t.Error("truncated input accepted")
	}
	if _, err := decode(append(b, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	var e trace.Enc
	e.Bytes([]byte(`{"final_cycles":500,"epoch_len":100,"metrics":null}`))
	if _, err := decode(e.B); err == nil {
		t.Error("JSON with reordered fields accepted")
	}
}

func TestDoubleSnapshotByteIdentity(t *testing.T) {
	build := func() []byte {
		r := New(64)
		for i := 0; i < 100; i++ {
			r.Counter(Name("c", "i", string(rune('a'+i%5)))).Add(hw.Cycles(i*13), uint64(i))
		}
		r.Histogram("h").Observe(700, 42)
		return encode(r.Snapshot(1300))
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical runs encoded differently")
	}
}

func TestOpenMetrics(t *testing.T) {
	r := New(100)
	r.Counter(Name("exits", "vm", "a")).Add(10, 3)
	r.Gauge("depth").Set(20, 5)
	r.Histogram("lat").Observe(30, 3)
	out := string(r.Snapshot(100).OpenMetrics())
	for _, want := range []string{
		"# TYPE exits counter",
		`exits_total{vm="a"} 3`,
		"# TYPE depth gauge",
		"depth 5",
		"# TYPE lat histogram",
		"lat_count 1",
		"lat_sum 3",
		`lat_bucket{le="+Inf"} 1`,
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
}
