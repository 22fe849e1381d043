package hypervisor

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/stat"
	"nova/internal/x86"
)

// BareMetal runs an operating system directly on the simulated
// platform with no virtualization layer at all: the paper's "Native"
// baseline. The OS owns the physical devices, receives hardware
// interrupts through its own IDT, and pays only its own page-walk
// costs.
type BareMetal struct {
	Plat   *hw.Platform
	State  x86.CPUState
	Interp *x86.Interp

	// Prof, when set, samples execution on the virtual-time grid (same
	// zero-perturbation contract as the kernel's profiler); profRead is
	// the pure memory reader its stack walks use.
	Prof     *prof.Profiler
	profRead prof.MemReader

	// Stat, when set, carries the native run's resource accounting
	// (instruction and device totals; a native run has no exits or IPC).
	Stat *stat.Registry
}

// NewBareMetal prepares a native run of the OS image already loaded in
// platform memory, entered at the given address in real mode.
func NewBareMetal(plat *hw.Platform, entry uint32) *BareMetal {
	b := &BareMetal{Plat: plat}
	b.State.Reset()
	b.State.EIP = entry
	b.Interp = x86.NewInterp(newNativeEnv(plat), &b.State, x86.Intercepts{})
	b.Interp.Cache = x86.NewDecodeCache()
	b.Interp.TSC = func() uint64 { return uint64(plat.BootCPU().Clock.Now()) }
	return b
}

// Run executes until the deadline, the OS halts with no wakeup source,
// or a triple fault occurs.
func (b *BareMetal) Run(until hw.Cycles) error {
	clk := &b.Plat.BootCPU().Clock
	for clk.Now() < until {
		b.Plat.RunEventsUntil(clk.Now())
		pending := b.Plat.PIC.HasPending()
		if pending && b.Interp.Interruptible() {
			if vec, ok := b.Plat.PIC.Acknowledge(); ok {
				if err := b.Interp.Interrupt(vec); err != nil {
					return fmt.Errorf("hypervisor: native interrupt delivery: %w", err)
				}
			}
			continue
		}
		if b.State.Halted {
			if _, due := idle(b.Plat, b.Prof, 0, until); !due {
				return nil
			}
			continue
		}
		horizon := until
		if b.Prof != nil {
			horizon = min(horizon, profSample(b.Prof, 0, clk.Now(), &b.State, b.profRead))
		}
		window := fuseLimit(b.Plat, clk.Now(), horizon, pending)
		if err := step(b.Interp, clk, b.Plat.Cost.InstructionCost, window); err != nil {
			return fmt.Errorf("hypervisor: native execution: %w", err)
		}
	}
	return nil
}
