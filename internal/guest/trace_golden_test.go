package guest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/trace"
	"nova/internal/x86"
)

// tinyTraceKernel is a minimal EPT guest for the golden-trace test: two
// POST-code port writes, then the finish marker. Every event it can
// generate is known in advance.
func tinyTraceKernel() KernelOpts {
	return KernelOpts{Workload: `
	mov al, 0x5a
	out 0x80, al
	out 0x80, al
	jmp finish
`}
}

func tinyTraceRun(t *testing.T, capacity int) *Runner {
	t.Helper()
	r, err := NewRunner(RunnerConfig{
		Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true,
		SchedTimerHz: -1, // no preemption: the event sequence is closed-form
		Sinks:        hypervisor.Sinks{TraceCapacity: capacity},
	}, MustBuild(tinyTraceKernel()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDone(1 << 32); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTraceGoldenSequence pins the exact event sequence of the tiny
// guest: one dispatch, then one (exit, call, pio, reply, resume) group
// per intercepted OUT — ten from the kernel's PIC setup, two from the
// workload — and the final HLT group. A change in instrumentation,
// interception or boot flow shows up here as a diff, not a flake.
func TestTraceGoldenSequence(t *testing.T) {
	r := tinyTraceRun(t, 4096)
	d := r.K.Tracer.Data()
	events := d.Events()

	var got []string
	for _, e := range events {
		s := e.Kind.String()
		switch e.Kind {
		case trace.KindVMExit, trace.KindVMResume:
			s += ":" + x86.ExitReason(e.A0).String()
		case trace.KindPIO:
			s += fmt.Sprintf(":%#x=%#x", e.A0, e.A2)
		}
		got = append(got, s)
	}

	ioGroup := func(port, val uint64) string {
		return fmt.Sprintf("vm-exit:io ipc-call pio:%#x=%#x ipc-reply vm-resume:io", port, val)
	}
	want := strings.Fields(strings.Join([]string{
		"sched-dispatch",
		// PIC initialization (ICW1-4 + masks on master and slave).
		ioGroup(0x20, 0x11), ioGroup(0x21, 0x20), ioGroup(0x21, 0x04), ioGroup(0x21, 0x01),
		ioGroup(0xa0, 0x11), ioGroup(0xa1, 0x28), ioGroup(0xa1, 0x02), ioGroup(0xa1, 0x01),
		ioGroup(0x21, 0x00), ioGroup(0xa1, 0x00),
		// The workload's two POST-code writes.
		ioGroup(0x80, 0x5a), ioGroup(0x80, 0x5a),
		// Park at the finish marker.
		"vm-exit:hlt ipc-call ipc-reply vm-resume:hlt",
	}, " "))
	if len(got) != len(want) {
		t.Fatalf("event count %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Per-CPU invariants: contiguous sequence numbers, monotone time.
	for cpu, ring := range d.PerCPU {
		prev := hw.Cycles(0)
		for i, e := range ring {
			if e.Seq != uint64(i) {
				t.Fatalf("cpu%d event %d has seq %d (gap)", cpu, i, e.Seq)
			}
			if e.Time < prev {
				t.Fatalf("cpu%d time went backwards at event %d", cpu, i)
			}
			prev = e.Time
		}
		if d.Overwritten[cpu] != 0 {
			t.Errorf("cpu%d overwrote %d events in an undersized run", cpu, d.Overwritten[cpu])
		}
	}
}

// TestTracedRunsByteIdentical runs the same guest twice and requires
// the two serialized traces to be equal byte for byte — the strongest
// determinism statement the tracer makes.
func TestTracedRunsByteIdentical(t *testing.T) {
	enc := func() []byte {
		return tinyTraceRun(t, 4096).Obs().Encode()
	}
	b1, b2 := enc(), enc()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("traces differ: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestTracingZeroPerturbation requires a traced run to consume exactly
// as much virtual time as an untraced run: trace emission must never
// charge cycles (the tracepure analyzer enforces the same statically).
func TestTracingZeroPerturbation(t *testing.T) {
	run := func(capacity int) hw.Cycles {
		r, err := NewRunner(RunnerConfig{
			Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true,
			SchedTimerHz: -1, Sinks: hypervisor.Sinks{TraceCapacity: capacity},
		}, MustBuild(tinyTraceKernel()))
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := r.RunUntilDone(1 << 32)
		if err != nil {
			t.Fatal(err)
		}
		if (capacity > 0) != (r.K.Tracer != nil) {
			t.Fatalf("tracer presence does not match capacity %d", capacity)
		}
		return cycles
	}
	off, on := run(0), run(4096)
	if off != on {
		t.Errorf("tracing perturbed the run: %d cycles untraced, %d traced (Δ=%d)",
			off, on, int64(on)-int64(off))
	}
}
