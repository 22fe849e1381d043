package hypervisor

import (
	"fmt"
	"strings"
	"testing"

	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/x86"
)

// withInstructionCost gives plat its own copy of its cost model with
// the base instruction cost set to ic, leaving every other platform's
// model alone.
func withInstructionCost(plat *hw.Platform, ic hw.Cycles) {
	c := *plat.Cost
	c.InstructionCost = ic
	plat.Cost = &c
}

// TestProfSampleHorizon pins the run loops' step boundary with a
// profiler attached: profSample takes the sample when one is due and
// returns the next sample point, and fuseLimit, given the nearer of
// that point and the deadline, returns the window up to the nearest of
// the sample point, the next event and the deadline (x86's StepBlock
// runs the instructions that start inside it).
func TestProfSampleHorizon(t *testing.T) {
	const period = 100
	for _, tc := range []struct {
		name string
		// anchor, when non-zero, is the time of an earlier observation
		// that anchored the grid, so the next sample point is
		// anchor+period; zero leaves the grid unanchored.
		anchor               hw.Cycles
		now, event, deadline hw.Cycles // event 0: none queued
		pending              bool
		sampled              bool
		next, window         hw.Cycles
	}{
		{"sample point before event and deadline", 50, 100, 200, 300, false, false, 150, 50},
		{"sample point between event and deadline", 150, 100, 200, 300, false, false, 250, 100},
		{"sample point between deadline and event", 150, 100, 300, 200, false, false, 250, 100},
		{"sample point after event and deadline", 350, 100, 250, 300, false, false, 450, 150},
		{"sample point after the deadline, no event", 350, 100, 0, 300, false, false, 450, 200},
		{"sample point at now+1", 1, 100, 200, 300, false, false, 101, 1},
		{"sample due now", 50, 150, 400, 500, false, true, 250, 100},
		{"three points crossed", 50, 370, 0, 1000, false, true, 450, 80},
		{"grid unanchored: the check anchors it", 0, 100, 0, 1000, false, false, 200, 100},
		{"pending: sample still taken, no window", 50, 150, 400, 500, true, true, 250, 0},
	} {
		plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 1 << 20})
		if tc.event != 0 {
			plat.Queue.At(tc.event, func() {})
		}
		p := prof.New(1, period, 16)
		if tc.anchor != 0 {
			p.Tick(0, tc.anchor, prof.ModeGuest, prof.GuestCtx{})
		}
		var st x86.CPUState
		next := profSample(p, 0, tc.now, &st, nil)
		window := fuseLimit(plat, tc.now, min(tc.deadline, next), tc.pending)
		if got := p.Data().TotalSamples() > 0; got != tc.sampled {
			t.Errorf("%s: sampled = %v, want %v", tc.name, got, tc.sampled)
		}
		if next != tc.next {
			t.Errorf("%s: next sample point %d, want %d", tc.name, next, tc.next)
		}
		if window != tc.window {
			t.Errorf("%s: fuse window %d, want %d", tc.name, window, tc.window)
		}
	}
}

// straightLine is a real-mode program of n one-byte fusible
// instructions followed by HLT: instruction k sits at entry+k.
func straightLine(entry uint32, n int) []byte {
	return x86.MustAssemble(fmt.Sprintf("bits 16\norg %#x\n%s\thlt\n", entry, strings.Repeat("\tinc ax\n", n)))
}

// fusedInsts returns the instructions ip retired in fused runs; with the
// decode cache off it fuses none.
func fusedInsts(ip *x86.Interp) uint64 {
	if ip.Cache == nil {
		return 0
	}
	return ip.Cache.SB.Fused
}

// wantStraightLineSamples is the closed form of the guest samples of a
// straightLine run profiled from instruction 1 on, which starts at t1:
// instruction k starts at t1+(k-1)·ic, the check before instruction 1
// anchors the grid, and the sample for each grid point lands on the
// first instruction that starts at or after it, with the weight of the
// grid points crossed. It returns (instruction, weight) pairs.
func wantStraightLineSamples(n int, ic, period hw.Cycles) [][2]uint64 {
	var want [][2]uint64
	next := period
	for k := 2; k <= n; k++ {
		now := hw.Cycles(k-1) * ic
		if now >= next {
			w := (now-next)/period + 1
			next += w * period
			want = append(want, [2]uint64{uint64(k), uint64(w)})
		}
	}
	return want
}

// TestGuestSamplesLandOnTheInstructionAboutToRun runs a straight line of
// fusible instructions under both run loops, fused and single-stepped
// (decode cache off), at several periods and two instruction costs, and
// checks every guest sample against the closed form. The first
// instruction runs before the profiler attaches, so its fetch's TLB
// fill is not in the window and every profiled instruction costs
// exactly ic.
func TestGuestSamplesLandOnTheInstructionAboutToRun(t *testing.T) {
	const entry, n = 0x7c00, 600
	code := straightLine(entry, n)
	// A run returns the guest samples, the start time of instruction 1
	// and the instructions retired fused.
	type run func(ic hw.Cycles, period uint64, stepped bool) ([]prof.Sample, hw.Cycles, uint64)
	bare := func(ic hw.Cycles, period uint64, stepped bool) ([]prof.Sample, hw.Cycles, uint64) {
		plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 16 << 20})
		withInstructionCost(plat, ic)
		plat.Mem.WriteBytes(entry, code)
		bm := NewBareMetal(plat, entry)
		if stepped {
			bm.Interp.Cache = nil
		}
		clk := &plat.BootCPU().Clock
		if err := bm.Run(clk.Now() + 1); err != nil {
			t.Fatal(err)
		}
		t1 := clk.Now()
		bm.Observe(Sinks{ProfilePeriod: period})
		if err := bm.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
		return bm.Obs().Prof.Samples[0], t1, fusedInsts(bm.Interp)
	}
	virt := func(ic hw.Cycles, period uint64, stepped bool) ([]prof.Sample, hw.Cycles, uint64) {
		k := newTestKernel(t, Config{UseVPID: true, DisableDecodeCache: stepped})
		withInstructionCost(k.Plat, ic)
		tv := makeVM(t, k, ModeEPT, 64, code, entry, nil)
		k.Run(k.Now() + 1)
		t1 := k.Now()
		k.Observe(Sinks{ProfilePeriod: period})
		k.Run(k.Now() + 1<<30)
		if v := tv.ec.VCPU; !v.State.Halted || v.Interp.InstRet != n {
			t.Fatalf("guest did not run to its HLT: %d instructions, %v", v.Interp.InstRet, v.State.String())
		}
		return k.Obs().Prof.Samples[0], t1, fusedInsts(tv.ec.VCPU.Interp)
	}
	for _, loop := range []struct {
		name string
		run  run
	}{{"baremetal", bare}, {"ept", virt}} {
		for _, ic := range []hw.Cycles{1, 3} {
			for _, period := range []uint64{1, 7, 97} {
				want := wantStraightLineSamples(n, ic, hw.Cycles(period))
				for _, stepped := range []bool{false, true} {
					samples, t1, fused := loop.run(ic, period, stepped)
					label := fmt.Sprintf("%s ic=%d period=%d stepped=%v", loop.name, ic, period, stepped)
					if !stepped && hw.Cycles(period) > ic && fused == 0 {
						t.Errorf("%s: nothing fused; the run does not exercise the horizon", label)
					}
					var got [][2]uint64
					for _, s := range samples {
						if s.Mode != prof.ModeGuest {
							continue
						}
						k := uint64(s.Frames[0] - entry)
						if start := t1 + hw.Cycles(k-1)*ic; s.Time != start {
							t.Errorf("%s: sample at %#x taken at %d, but that instruction starts at %d",
								label, s.Frames[0], s.Time, start)
						}
						got = append(got, [2]uint64{k, s.Weight})
					}
					if len(got) != len(want) {
						t.Errorf("%s: %d guest samples, want %d", label, len(got), len(want))
						continue
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s: sample %d is (instruction, weight) %v, want %v", label, i, got[i], want[i])
							break
						}
					}
				}
			}
		}
	}
}
