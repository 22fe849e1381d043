package guest

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/prof"
)

// profGolden is what a profiled run pins: the sample weight that lands
// in each mode, and per attribution kind the event count, the cycles
// and an FNV-64a hash over the kind's rows (address, D bit, count,
// cycles) in table order.
type profGolden struct {
	Modes  [prof.NumModes]uint64
	Count  [prof.NumAttribKinds]uint64
	Cycles [prof.NumAttribKinds]uint64
	Hash   [prof.NumAttribKinds]uint64
}

func profGoldenOf(d *prof.Data) profGolden {
	var g profGolden
	for _, per := range d.Samples {
		for _, s := range per {
			g.Modes[s.Mode] += s.Weight
		}
	}
	var hashes [prof.NumAttribKinds][]byte
	for _, a := range d.Attrib {
		g.Count[a.Kind] += a.Count
		g.Cycles[a.Kind] += a.Cycles
		var row [21]byte
		binary.LittleEndian.PutUint32(row[0:], a.RIP)
		if a.Def32 {
			row[4] = 1
		}
		binary.LittleEndian.PutUint64(row[5:], a.Count)
		binary.LittleEndian.PutUint64(row[13:], a.Cycles)
		hashes[a.Kind] = append(hashes[a.Kind], row[:]...)
	}
	for k, b := range hashes {
		h := fnv.New64a()
		h.Write(b)
		g.Hash[k] = h.Sum64()
	}
	return g
}

// TestProfileGolden pins where the profiler's exact-cost attribution
// lands and how the samples split by mode, for diskread under EPT
// (emulated MMIO, port I/O and HLT exits) and a short compile under the
// vTLB (fills, flushes and emulated MMIO). The sample grid and the
// attribution are zero-perturbation observations of deterministic
// state, so these numbers move only when what is attributed, to which
// address, or when a sample is taken, moves: an exit window attributed
// at the EIP the VMM's reply left instead of the exiting instruction,
// an emulation sample taken before the emulation's cost is charged, or
// a vTLB fill attributed to the faulting data address instead of the
// instruction.
func TestProfileGolden(t *testing.T) {
	cases := []struct {
		name   string
		mode   Mode
		opts   KernelOpts
		params []uint32
		want   profGolden
	}{
		{"diskread-ept", ModeVirtEPT, DiskChecksumKernel(), []uint32{8, 50, 4096, 0, 0, 420}, profGolden{
			Modes:  [prof.NumModes]uint64{19, 57, 82, 3},
			Count:  [prof.NumAttribKinds]uint64{470, 0, 206},
			Cycles: [prof.NumAttribKinds]uint64{1351696, 0, 92700},
			Hash:   [prof.NumAttribKinds]uint64{0xbc90ebdf00f136ef, 0xcbf29ce484222325, 0x2428b81cba7271d4},
		}},
		{"compile-vtlb", ModeVirtVTLB, CompileKernel(667), []uint32{4, 64, 16, 2000, 1}, profGolden{
			Modes:  [prof.NumModes]uint64{92, 3, 17, 0},
			Count:  [prof.NumAttribKinds]uint64{106, 344, 10},
			Cycles: [prof.NumAttribKinds]uint64{182381, 440688, 4500},
			Hash:   [prof.NumAttribKinds]uint64{0xa19067f8e91647b5, 0x2dc5a8d7755a776c, 0x90eeda76553ce096},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(RunnerConfig{
				Model: hw.BLM, Mode: tc.mode, UseVPID: true, HostLargePages: true, WithDiskServer: true,
				Sinks: hypervisor.Sinks{ProfilePeriod: 10_000},
			}, MustBuild(tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			writeParams(r, tc.params...)
			if _, err := r.RunUntilDone(1 << 34); err != nil {
				t.Fatalf("run: %v", err)
			}
			got := profGoldenOf(r.Obs().Prof)
			if got != tc.want {
				t.Errorf("profile moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
