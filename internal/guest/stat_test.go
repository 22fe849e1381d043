package guest

import (
	"bytes"
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/obs"
	"nova/internal/stat"
)

// statRun boots one workload with accounting on and returns the encoded
// file, which holds the snapshot alone.
func statRun(t *testing.T, cfg RunnerConfig, img []byte, params []uint32) []byte {
	t.Helper()
	cfg.StatEpoch = 250_000
	r, err := NewRunner(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, params...)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return r.Obs().Encode()
}

// TestStatsDoubleRunByteIdentity runs each workload twice with
// accounting on and requires the two encoded snapshots to be
// byte-identical — the determinism half of the contract: the metrics
// time series is itself a reproducible simulation output.
func TestStatsDoubleRunByteIdentity(t *testing.T) {
	for _, tc := range abCases() {
		t.Run(tc.name, func(t *testing.T) {
			b1 := statRun(t, tc.cfg, tc.img, tc.params)
			b2 := statRun(t, tc.cfg, tc.img, tc.params)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two identical runs encoded different snapshots (%d vs %d bytes)", len(b1), len(b2))
			}
			f, err := obs.Decode(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			d := f.Stat
			if len(d.Metrics) == 0 {
				t.Fatal("snapshot has no metrics")
			}
			t.Logf("%s: %d metrics, %d bytes", tc.name, len(d.Metrics), len(b1))
		})
	}
}

// TestStatsContentSanity checks that an accounted vTLB run actually
// attributes activity: exits by reason for the guest vCPU, per-PD IPC,
// vTLB fills, scheduler consumption and epoch cells that sum to the
// totals.
func TestStatsContentSanity(t *testing.T) {
	cfg := RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB, Sinks: hypervisor.Sinks{StatEpoch: 250_000}}
	img := MustBuild(ComputeKernelWithSwitches(true, false, 8))
	r, err := NewRunner(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, 3, 64<<10)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	d := r.Obs().Stat
	byName := map[string]uint64{}
	for _, m := range d.Metrics {
		byName[m.Name] = m.Total
		var cells uint64
		for _, c := range m.Epochs {
			cells += c.Value
		}
		if m.Kind == "counter" && cells != m.Total {
			t.Errorf("%s: epoch cells sum to %d, total is %d", m.Name, cells, m.Total)
		}
	}
	if got, want := byName[stat.Name("kernel_vtlb_fills", "vm", "guest", "vcpu", "0")], r.K.Stats.VTLBFills; got != want {
		t.Errorf("vtlb fills = %d, kernel aggregate says %d", got, want)
	}
	if byName[stat.Name("guest_instructions", "vm", "guest", "vcpu", "0")] != r.InstRet() {
		t.Errorf("guest_instructions sampler diverges from InstRet")
	}
	if byName[stat.Name("kernel_sched_dispatches", "ec", "guest-vcpu0")] == 0 {
		t.Error("no dispatches accounted for the guest vCPU")
	}
	var exits uint64
	for _, m := range d.Metrics {
		md := m
		if fam, _ := md.Family(); fam == "kernel_vmexits" {
			exits += md.Total
		}
	}
	if want := r.VCPU().TotalExits(); exits != want {
		t.Errorf("per-reason exit counters sum to %d, vCPU counted %d", exits, want)
	}
}
