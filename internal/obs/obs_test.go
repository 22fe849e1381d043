package obs_test

import (
	"bytes"
	"reflect"
	"testing"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/obs"
	"nova/internal/span"
	"nova/internal/stat"
)

// allSinks attaches every sink, with rings small enough to wrap.
var allSinks = hypervisor.Sinks{TraceCapacity: 32, SpanCapacity: 8, ProfilePeriod: 1000, StatEpoch: 50_000}

// tinyRun observes a run of a guest that writes two POST codes and
// halts.
func tinyRun(t testing.TB, sinks hypervisor.Sinks) *obs.File {
	t.Helper()
	r, err := guest.NewRunner(guest.RunnerConfig{
		Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, SchedTimerHz: -1, Sinks: sinks,
	}, guest.MustBuild(guest.KernelOpts{Workload: `
	mov al, 0x5a
	out 0x80, al
	out 0x80, al
	jmp finish
`}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDone(1 << 32); err != nil {
		t.Fatal(err)
	}
	return r.Obs()
}

// TestFileRoundTrip: a file decodes to what was encoded, every section
// present, and re-encodes to the same bytes.
func TestFileRoundTrip(t *testing.T) {
	f := tinyRun(t, allSinks)
	if f.Trace == nil || f.Stat == nil || f.Spans == nil || f.Prof == nil {
		t.Fatalf("missing sections: %+v", f)
	}
	if f.Trace.Overwritten[0] == 0 || f.Prof.TotalSamples() == 0 || len(f.Prof.Code) == 0 {
		t.Fatalf("the run no longer wraps its trace ring (%d overwritten), samples (%d) or captures code (%d sites)",
			f.Trace.Overwritten[0], f.Prof.TotalSamples(), len(f.Prof.Code))
	}
	b := f.Encode()
	g, err := obs.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Errorf("decoded file differs:\n got %+v\nwant %+v", g, f)
	}
	if !bytes.Equal(g.Encode(), b) {
		t.Error("decoded file re-encodes differently")
	}
	if b2 := tinyRun(t, allSinks).Encode(); !bytes.Equal(b, b2) {
		t.Error("two runs encode differently")
	}
}

// TestDecodeRejectsMalformed: truncations, trailing bytes, bad magic,
// reordered, repeated and unknown sections all fail cleanly.
func TestDecodeRejectsMalformed(t *testing.T) {
	f := tinyRun(t, allSinks)
	b := f.Encode()
	// A prefix decodes only where it ends between sections: after the
	// header, the trace, the stat and the span section.
	whole := 0
	for n := 0; n < len(b); n++ {
		if g, err := obs.Decode(b[:n]); err == nil {
			if !bytes.Equal(g.Encode(), b[:n]) {
				t.Fatalf("prefix of %d of %d bytes decoded to a different file", n, len(b))
			}
			whole++
		}
	}
	if whole != 4 {
		t.Errorf("%d prefixes decoded, want 4 (one per section boundary)", whole)
	}
	if _, err := obs.Decode(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("trailing byte decoded")
	}
	bad := append([]byte{}, b...)
	bad[0] = 'X'
	if _, err := obs.Decode(bad); err == nil {
		t.Error("bad magic decoded")
	}
	head := len((&obs.File{Header: f.Header}).Encode())
	trace := (&obs.File{Header: f.Header, Trace: f.Trace}).Encode()[head:]
	stat := (&obs.File{Header: f.Header, Stat: f.Stat}).Encode()[head:]
	for name, tail := range map[string][]byte{
		"reordered": append(append([]byte{}, stat...), trace...),
		"repeated":  append(append([]byte{}, stat...), stat...),
		"unknown":   {9, 0, 0, 0, 0},
	} {
		if _, err := obs.Decode(append(append([]byte{}, b[:head]...), tail...)); err == nil {
			t.Errorf("%s sections decoded", name)
		}
	}
}

// FuzzObsDecode: for any input the decoder returns an error or a file
// that re-encodes to exactly the input, and never panics. The seeds
// are small, because the fuzzer minimizes every seed that adds
// coverage: the file of a tiny traced and profiled run, and a stat
// and a span section recorded by hand.
func FuzzObsDecode(f *testing.F) {
	file := tinyRun(f, hypervisor.Sinks{TraceCapacity: 4, ProfilePeriod: 20_000})
	f.Add(file.Encode())
	reg := stat.New(1000)
	reg.Counter(stat.Name("c", "vm", "a")).Add(1500, 2)
	reg.Histogram("h").Observe(10, 300)
	rec := span.New(1, 4)
	rec.Close(0, 90, rec.Open(0, 10, span.ClassDisk, span.SegEmul, 7), span.StatusOK)
	f.Add((&obs.File{Header: file.Header, Stat: reg.Snapshot(2000), Spans: rec.Data()}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := obs.Decode(b)
		if err != nil {
			return
		}
		if got := d.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("decoded %d bytes re-encode to %d different bytes", len(b), len(got))
		}
	})
}
