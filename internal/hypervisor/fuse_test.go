package hypervisor

import (
	"testing"

	"nova/internal/hw"
)

// TestFuseWindowCountsTheFetchCharge: a fused run whose fetch misses
// the TLB starts its instructions after the walk's charge, so a
// platform event that falls inside the walk, or just after it, must
// fire after the same instruction as in a single-stepped run (decode
// cache off). The first fetch of a nested-paging guest misses and
// walks the host tables for about a hundred cycles; an event then
// observes how many instructions have retired.
func TestFuseWindowCountsTheFetchCharge(t *testing.T) {
	const entry, n = 0x7c00, 600
	code := straightLine(entry, n)
	retiredAtEvent := func(offset hw.Cycles, stepped bool) uint64 {
		k := newTestKernel(t, Config{UseVPID: true, DisableDecodeCache: stepped})
		tv := makeVM(t, k, ModeEPT, 64, code, entry, nil)
		v := tv.ec.VCPU
		seen := ^uint64(0)
		k.Plat.Queue.At(k.Now()+offset, func() { seen = v.Interp.InstRet })
		k.Run(k.Now() + 1<<30)
		if !v.State.Halted || seen == ^uint64(0) {
			t.Fatalf("event at +%d: guest halted %v, event fired %v", offset, v.State.Halted, seen != ^uint64(0))
		}
		return seen
	}
	for _, offset := range []hw.Cycles{1, 50, 104, 105, 106, 110, 300} {
		fused, stepped := retiredAtEvent(offset, false), retiredAtEvent(offset, true)
		if fused != stepped {
			t.Errorf("event at +%d fired after %d instructions fused, %d stepped", offset, fused, stepped)
		}
	}
}
