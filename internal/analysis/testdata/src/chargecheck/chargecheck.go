// Package fixture seeds chargecheck violations: device-model entry
// points that mutate simulated state with and without cycle accounting,
// plus fused-execution (StepBlock) call sites with and without the
// required batch charge.
package fixture

import "time"

// Cycles is virtual time.
type Cycles uint64

// Clock mirrors hw.Clock: the analyzer recognizes (*Clock).Charge as a
// charge sink by receiver-type and method name.
type Clock struct{ now Cycles }

// Charge advances virtual time by n cycles of work.
func (c *Clock) Charge(n Cycles) { c.now += n }

// Device is a device model with a cycle clock.
type Device struct {
	clk   *Clock
	state uint32
	regs  map[uint32]uint32
}

// GoodWrite mutates device state and charges for the update.
func (d *Device) GoodWrite(reg, val uint32) {
	d.state = val
	d.clk.Charge(350)
}

// GoodWriteTransitive charges through a helper call chain.
func (d *Device) GoodWriteTransitive(reg, val uint32) {
	d.state = val
	d.account()
}

func (d *Device) account() { d.clk.Charge(350) }

// BadWrite mutates device state for free.
func (d *Device) BadWrite(reg, val uint32) { // want "mutates simulated state but no call path reaches"
	d.state = val
}

// BadDelete drops state for free through the delete builtin.
func (d *Device) BadDelete(reg uint32) { // want "mutates simulated state but no call path reaches"
	delete(d.regs, reg)
}

// nocharge: reset is boot-time construction, outside measured windows.
func (d *Device) AnnotatedReset() {
	d.state = 0
}

// ReadOnly observes without mutating; no charge required.
func (d *Device) ReadOnly() uint32 { return d.state }

// internalWrite is unexported: not an entry point, callers account.
func (d *Device) internalWrite(v uint32) { d.state = v }

// Interp models x86.Interp's stepping API. Like the real interpreter,
// its memory-access environment reaches the clock transitively (so the
// entry-point rule is satisfied); what matters for the fused-run rule
// is that StepBlock retires a whole fused run and the *call site* must
// batch-charge it before stepping again.
type Interp struct {
	clk *Clock
	ret uint64
}

// Step retires one instruction.
func (i *Interp) Step() error {
	i.ret++
	i.clk.Charge(1)
	return nil
}

// StepBlock retires up to max instructions as one fused run.
func (i *Interp) StepBlock(max uint64) error {
	i.ret += max
	i.clk.Charge(1)
	return nil
}

// goodFusedLoop is the batching idiom: one charge per fused run,
// adjacent to the StepBlock call in the loop body.
func goodFusedLoop(clk *Clock, ip *Interp) {
	for n := 0; n < 4; n++ {
		if err := ip.StepBlock(8); err != nil {
			return
		}
		clk.Charge(8)
	}
}

// goodFusedFallback mirrors the run loops' shape: the fused call and
// the single-step fallback bind in one statement, and the batch charge
// follows as a sibling after intervening bookkeeping.
func goodFusedFallback(clk *Clock, ip *Interp, max uint64) error {
	var err error
	if max > 1 {
		err = ip.StepBlock(max)
	} else {
		err = ip.Step()
	}
	retired := max
	clk.Charge(Cycles(retired))
	return err
}

// badFusedNoCharge steps a fused run and returns without ever
// charging the batch.
func badFusedNoCharge(ip *Interp) error {
	return ip.StepBlock(8) // want "no following batch charge"
}

// badFusedStepsAgain steps again before charging the fused run: the
// eventual charge cannot be attributed to the first run.
func badFusedStepsAgain(clk *Clock, ip *Interp) {
	ip.StepBlock(8) // want "no following batch charge"
	ip.Step()       // a second step before the batch charge
	clk.Charge(16)
}

// WallInterp models a fused executor that consults host time.
type WallInterp struct{ ret uint64 }

// StepBlock leaks a wall-clock read into the fused loop.
func (w *WallInterp) StepBlock(max uint64) error { // want "wall-clock read"
	if time.Now().UnixNano() == 0 {
		return nil
	}
	return nil
}
