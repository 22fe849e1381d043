package prof

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"nova/internal/hw"
	"nova/internal/trace"
)

func TestTickGridAndWeights(t *testing.T) {
	p := New(1, 100, 16)
	g := GuestCtx{RIP: 0x1000}

	// First observation anchors the grid at now+period; nothing records.
	p.Tick(0, 50, ModeGuest, g)
	if n := p.bufs[0].Len(); n != 0 {
		t.Fatalf("anchor tick recorded %d samples", n)
	}
	// Below the grid point: nothing.
	p.Tick(0, 149, ModeGuest, g)
	if n := p.bufs[0].Len(); n != 0 {
		t.Fatalf("sub-period tick recorded %d samples", n)
	}
	// Crossing one grid point (150): one sample of weight 1.
	p.Tick(0, 150, ModeGuest, g)
	// A long burst crossing 3 grid points (250, 350, 450): weight 3.
	p.Tick(0, 460, ModeGuest, g)

	recs := p.bufs[0].recs()
	if len(recs) != 2 {
		t.Fatalf("got %d samples, want 2", len(recs))
	}
	if recs[0].weight != 1 || recs[1].weight != 3 {
		t.Fatalf("weights = %d, %d, want 1, 3", recs[0].weight, recs[1].weight)
	}
	if got := p.Data().TotalSamples(); got != 4 {
		t.Fatalf("TotalSamples = %d, want 4", got)
	}
	// The grid stays aligned: next should be 550, so 549 records nothing.
	p.Tick(0, 549, ModeGuest, g)
	if len(p.bufs[0].recs()) != 2 {
		t.Fatal("tick below the realigned grid point recorded a sample")
	}
}

func TestSkipIdleAdvancesWithoutRecording(t *testing.T) {
	p := New(1, 100, 16)
	p.Tick(0, 0, ModeGuest, GuestCtx{RIP: 1}) // anchor; next = 100
	p.SkipIdle(0, 1000)                       // crosses many grid points
	if n := p.bufs[0].Len(); n != 0 {
		t.Fatalf("SkipIdle recorded %d samples", n)
	}
	// Grid continued through the idle span: next = 1100.
	p.Tick(0, 1099, ModeGuest, GuestCtx{RIP: 1})
	if p.bufs[0].Len() != 0 {
		t.Fatal("tick before post-idle grid point recorded a sample")
	}
	p.Tick(0, 1100, ModeGuest, GuestCtx{RIP: 1})
	if p.bufs[0].Len() != 1 {
		t.Fatal("tick at post-idle grid point did not record")
	}
}

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.Tick(0, 100, ModeGuest, GuestCtx{})
	p.SkipIdle(0, 100)
	p.Attribute(AttribExit, 0, false, 1)
	d := p.Data()
	if d != nil {
		t.Fatal("nil profiler produced sample data")
	}
	d.CaptureCode(4, func(uint32) (byte, bool) { return 0, false })
}

func TestBufOverwrite(t *testing.T) {
	p := New(1, 10, 4)
	p.Tick(0, 0, ModeGuest, GuestCtx{}) // anchor
	for i := 1; i <= 7; i++ {
		p.Tick(0, hw.Cycles(i*10), ModeGuest, GuestCtx{RIP: uint32(i)})
	}
	b := p.bufs[0]
	if b.Len() != 4 || b.Overwritten() != 3 {
		t.Fatalf("Len=%d Overwritten=%d, want 4 and 3", b.Len(), b.Overwritten())
	}
	recs := b.recs()
	// Oldest-first: samples 4..7 survive.
	for i, r := range recs {
		if want := uint32(i + 4); r.frames[0] != want {
			t.Errorf("rec %d rip=%d, want %d", i, r.frames[0], want)
		}
	}
}

func TestAttribSetSortedAggregation(t *testing.T) {
	p := New(1, 10, 4)
	// Insert out of order, with one repeat.
	p.Attribute(AttribVTLBFill, 0x300, false, 7)
	p.Attribute(AttribExit, 0x200, true, 5)
	p.Attribute(AttribExit, 0x100, false, 3)
	p.Attribute(AttribExit, 0x200, true, 5)

	got := p.Data().Attrib
	want := []AttribEntry{
		{Kind: AttribExit, RIP: 0x100, Def32: false, Count: 1, Cycles: 3},
		{Kind: AttribExit, RIP: 0x200, Def32: true, Count: 2, Cycles: 10},
		{Kind: AttribVTLBFill, RIP: 0x300, Def32: false, Count: 1, Cycles: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attrib = %+v, want %+v", got, want)
	}
}

// populated builds a profile with samples on two CPUs, attributions
// and captured code, exercising every part of the encoding.
func populated(t *testing.T) *Data {
	t.Helper()
	p := New(2, 100, 8)
	stack := map[uint32]uint32{0x1000: 0, 0x1004: 0x8010}
	read := func(va uint32) (uint32, bool) { v, ok := stack[va]; return v, ok }
	for cpu := 0; cpu < 2; cpu++ {
		p.Tick(cpu, 0, ModeGuest, GuestCtx{})
		for i := 1; i <= 5; i++ {
			p.Tick(cpu, hw.Cycles(i*100), ModeGuest,
				GuestCtx{RIP: 0x8000 + uint32(i), Def32: true, EBP: 0x1000, Read: read})
		}
	}
	p.Tick(0, 700, ModeEmulation, GuestCtx{RIP: 0x9000})
	p.Attribute(AttribExit, 0x8001, true, 400)
	p.Attribute(AttribEmulate, 0x9000, false, 450)
	code := []byte{0x90, 0xc3}
	d := p.Data()
	d.CaptureCode(4, func(va uint32) (byte, bool) {
		if int(va-0x8000) < len(code)*1000 {
			return code[va%2], true
		}
		return 0, false
	})
	return d
}

// encode writes a profile section body.
func encode(d *Data) []byte {
	var e trace.Enc
	d.WriteBody(&e)
	return e.B
}

// decode reads a profile section body of two CPUs.
func decode(b []byte) (*Data, error) {
	dec := &trace.Dec{B: b}
	d := ReadBody(dec, 2)
	return d, dec.End()
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := populated(t)
	if len(p.Code) == 0 {
		t.Fatal("no code captured")
	}
	b := encode(p)
	d, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, p) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", d, p)
	}
	if !bytes.Equal(encode(d), b) {
		t.Fatal("a decoded profile re-encodes differently")
	}
}

func TestEncodeByteIdentity(t *testing.T) {
	if !bytes.Equal(encode(populated(t)), encode(populated(t))) {
		t.Fatal("two encodings of the same profile differ")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	b := encode(populated(t))
	if _, err := decode(b[:len(b)-1]); err == nil {
		t.Error("truncated profile decoded")
	}
	if _, err := decode(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("trailing bytes decoded")
	}
	if _, err := decode(nil); err == nil {
		t.Error("empty profile decoded")
	}
}

// TestDecodeAllocationBounded: a section whose counts claim more
// records than its bytes can hold fails before allocating them, so
// decoding allocates in proportion to the input, whatever the counts
// say.
func TestDecodeAllocationBounded(t *testing.T) {
	hdr := func(counts ...uint32) []byte {
		var e trace.Enc
		e.U64(10_000) // period
		e.U32(16)     // capacity
		e.U64(0)      // cpu0 overwritten
		e.U32(counts[0])
		for _, c := range counts[1:] {
			e.U32(c)
		}
		return e.B
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"samples 2^20", hdr(1 << 20)},
		{"samples 2^28", hdr(1 << 28)},
		{"samples 2^32-1", hdr(1<<32 - 1)},
		{"attrib 2^28", hdr(0, 1<<28)},
		{"code 2^28", hdr(0, 0, 1<<28)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				dec := &trace.Dec{B: tc.b}
				ReadBody(dec, 1)
				err = dec.End()
			})
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			dec := &trace.Dec{B: tc.b}
			ReadBody(dec, 1)
			runtime.ReadMemStats(&ms1)
			if err == nil || dec.End() == nil {
				t.Fatal("a count larger than the section decoded")
			}
			if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64*uint64(len(tc.b))+4096 || allocs > 16 {
				t.Errorf("decoding %d bytes allocated %d bytes in %.0f allocations", len(tc.b), grew, allocs)
			}
		})
	}
}

func TestHotRanking(t *testing.T) {
	d := populated(t)
	hot := d.Hot(3)
	if len(hot) == 0 {
		t.Fatal("no hot rows")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].TotalCycles() > hot[i-1].TotalCycles() {
			t.Fatalf("hot table not sorted: row %d (%d) > row %d (%d)",
				i, hot[i].TotalCycles(), i-1, hot[i-1].TotalCycles())
		}
	}
	// 0x8001 carries one sample per CPU (100 cycles each) plus a
	// 400-cycle exit.
	for _, h := range hot {
		if h.Addr == 0x8001 {
			if h.Samples != 2 || h.Exits != 1 || h.TotalCycles() != 600 {
				t.Fatalf("0x8001 row = %+v, want samples=2 exits=1 total=600", h)
			}
			return
		}
	}
	t.Fatal("0x8001 missing from hot table")
}

func TestFoldedDeterministicAndMerged(t *testing.T) {
	d := populated(t)
	lines := d.Folded()
	if len(lines) == 0 {
		t.Fatal("no folded output")
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("folded lines not strictly sorted: %q after %q", lines[i], lines[i-1])
		}
	}
	if !reflect.DeepEqual(lines, d.Folded()) {
		t.Fatal("two foldings of the same data differ")
	}
}

func TestWritePprofDeterministic(t *testing.T) {
	d := populated(t)
	var b1, b2 bytes.Buffer
	if err := d.WritePprof(&b1); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePprof(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.Len() == 0 {
		t.Fatal("empty pprof output")
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two pprof encodings of the same data differ")
	}
}
