package guest

import (
	"bytes"
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/obs"
	"nova/internal/span"
)

// spanRun executes the disk-checksum workload with spans attached and
// returns the encoded file, which holds the spans alone.
func spanRun(t *testing.T) []byte {
	t.Helper()
	cfg := RunnerConfig{
		Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true,
		WithDiskServer: true, Sinks: hypervisor.Sinks{SpanCapacity: 4096},
	}
	r, err := NewRunner(cfg, MustBuild(DiskChecksumKernel()))
	if err != nil {
		t.Fatal(err)
	}
	writeParams(r, 8, 4, 2000)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return r.Obs().Encode()
}

// TestSpanDiskDecomposition checks the tentpole's core claims on the
// disk-boot workload: every disk request span closes, closes exactly
// once even though its completion crosses the vAHCI IRQ
// recall/injection boundary, carries a guest segment (proving the span
// stayed open across the injection), and its per-segment durations sum
// exactly to the end-to-end latency. Also checks double-run
// byte-identity of the encoded span file.
func TestSpanDiskDecomposition(t *testing.T) {
	b := spanRun(t)
	f, err := obs.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Spans
	if d.Opened == 0 || d.Opened != d.Closed {
		t.Fatalf("opened=%d closed=%d, want equal and nonzero", d.Opened, d.Closed)
	}

	// Every span ID must carry exactly one close record: requests whose
	// completion is injected as a virtual interrupt (the
	// recall/injection boundary) must not be closed again when later
	// interrupts on the same line are acknowledged.
	closes := map[uint64]int{} // lookup+iteration order irrelevant: only checking counts
	for _, e := range d.Events() {
		if span.Kind(e.Kind) == span.KindClose {
			closes[e.A0]++
		}
	}
	for id, n := range closes {
		if n != 1 {
			t.Errorf("span %d closed %d times, want exactly once", id, n)
		}
	}

	spans := span.BuildSpans(d)
	var disk, withGuest int
	for _, s := range spans {
		if !s.Closed {
			t.Errorf("span %d (%s) never closed", uint64(s.ID), s.Name)
			continue
		}
		var sum int64
		for _, v := range s.Segs {
			sum += v
		}
		if sum != int64(s.Duration()) {
			t.Errorf("span %d (%s): segments sum to %d, end-to-end latency %d", uint64(s.ID), s.Name, sum, s.Duration())
		}
		if s.Class == span.ClassDisk {
			disk++
			for _, p := range s.Path {
				if p.Seg == span.SegGuest {
					withGuest++
					break
				}
			}
		}
	}
	if disk == 0 {
		t.Fatal("no disk request spans recorded")
	}
	if withGuest == 0 {
		t.Error("no disk span carries a guest segment (completion injection did not keep the span open)")
	}
	t.Logf("%d spans, %d disk requests, %d with guest segment", len(spans), disk, withGuest)

	// Determinism: a second identical run must produce the identical
	// encoded span file, byte for byte.
	if b2 := spanRun(t); !bytes.Equal(b, b2) {
		t.Error("double-run span files differ (encoding or recording is nondeterministic)")
	}
}
