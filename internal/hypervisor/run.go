package hypervisor

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// BindECToSemaphore makes a thread EC block on sm between runs: the
// driver pattern of down → handle → down. If the semaphore already has
// signals queued, the EC becomes runnable immediately.
func (k *Kernel) BindECToSemaphore(ec *EC, sm *Semaphore) {
	ec.WaitSem = sm
	k.blockOnSem(ec, sm)
}

func (k *Kernel) blockOnSem(ec *EC, sm *Semaphore) {
	sm.Downs++
	if sm.Counter > 0 {
		sm.Counter--
		ec.runnable = true
		if ec.SC != nil {
			k.enqueue(ec.SC)
		}
		return
	}
	ec.runnable = false
	ec.waitingOn = sm
	sm.waiters = append(sm.waiters, ec)
}

// Run executes the system until the given time, or until nothing can
// ever run again (no runnable ECs and no pending events). It returns
// the reason it stopped.
func (k *Kernel) Run(until hw.Cycles) string {
	for {
		clk := k.clock()
		if clk.Now() >= until {
			return "deadline"
		}
		k.Plat.RunEventsUntil(clk.Now())
		if !k.GuestOwnsPIC {
			k.handleHostInterrupts(nil)
		}

		sc := k.runq[k.cpu].pop()
		if sc == nil {
			// Idle: skip to the next event.
			if k.Plat.Queue.Empty() {
				return "idle"
			}
			t := k.Plat.Queue.NextTime()
			if t > until {
				clk.AdvanceTo(until)
				k.Prof.SkipIdle(k.cpu, clk.Now())
				return "deadline"
			}
			clk.AdvanceTo(t)
			k.Prof.SkipIdle(k.cpu, clk.Now())
			continue
		}
		ec := sc.EC
		if ec.dead || !ec.runnable {
			continue
		}
		k.current[k.cpu] = ec
		k.preempt = false
		wait := clk.Now() - sc.enqueuedAt
		k.Record(trace.KindSchedDispatch, uint64(ec.ID), uint64(sc.Priority), uint64(wait), uint64(k.runq[k.cpu].count))

		switch ec.Kind {
		case ECThread:
			ec.runnable = false
			if ec.Run != nil {
				ec.Run()
			}
			if ec.WaitSem != nil && !ec.dead {
				k.blockOnSem(ec, ec.WaitSem)
			}
			if k.Prof != nil {
				k.profServerTick(ec)
			}
		case ECVCPU:
			slice := sc.Left
			if slice == 0 {
				slice = sc.Quantum
			}
			deadline := clk.Now() + slice
			if deadline > until {
				deadline = until
			}
			start := clk.Now()
			k.runVCPU(ec, deadline)
			used := clk.Now() - start
			k.Record(trace.KindSchedRan, uint64(ec.ID), uint64(used), 0, 0)
			if used >= sc.Left {
				sc.Left = sc.Quantum // fresh quantum, back of the level
			} else {
				sc.Left -= used
			}
			if ec.runnable && !ec.dead {
				k.enqueue(sc)
			}
		}
		k.current[k.cpu] = nil
	}
}

// RunAll runs every CPU's scheduler in interleaved slices until the
// deadline, for multiprocessor configurations. CPU clocks advance
// independently; cross-CPU interactions (recall, semaphores) take
// effect when the target CPU's loop resumes.
func (k *Kernel) RunAll(until hw.Cycles) {
	const window = 200000 // interleave granularity in cycles
	for {
		progress := false
		for cpu := range k.Plat.CPUs {
			k.cpu = cpu
			now := k.Plat.CPUs[cpu].Clock.Now()
			if now >= until {
				continue
			}
			end := now + window
			if end > until {
				end = until
			}
			reason := k.Run(end)
			if reason == "deadline" {
				progress = true
			}
		}
		k.cpu = 0
		if !progress {
			return
		}
	}
}

// runVCPU executes a virtual CPU until its slice expires, it blocks, or
// a higher-priority EC preempts it.
func (k *Kernel) runVCPU(ec *EC, deadline hw.Cycles) {
	v := ec.VCPU
	clk := k.clock()
	cost := k.Plat.Cost

	for clk.Now() < deadline && !ec.dead {
		k.Plat.RunEventsUntil(clk.Now())
		if k.preempt {
			k.Stats.Preemptions++
			return
		}
		pending := k.Plat.PIC.HasPending()
		if pending {
			if v.NoExitDelivery {
				// §8.1 "Direct": the guest owns the platform interrupt
				// controller; deliver without leaving guest mode.
				if v.Interp.Interruptible() {
					if vec, ok := k.Plat.PIC.Acknowledge(); ok {
						k.Record(trace.KindInject, uint64(vec), uint64(ec.ID), 1, 0)
						if err := v.Interp.Interrupt(vec); err != nil {
							k.handleGuestRunError(ec, err)
						}
					}
					continue
				}
				if v.State.Halted {
					// Halted with IF=0 would wedge; fall through to the
					// halt handling below.
					k.killVM(ec, "halted with interrupts disabled") //nolint:errcheck
					return
				}
				// Not interruptible yet: execute until the window opens.
			} else {
				k.handleHostInterrupts(ec)
				if k.preempt {
					return
				}
				continue
			}
		}
		if v.RecallPending {
			v.RecallPending = false
			if err := k.dispatchExit(ec, &x86.VMExit{Reason: x86.ExitRecall}); err != nil {
				return
			}
			continue
		}
		if v.PendingValid {
			if v.Interruptible() {
				if v.WindowWanted {
					// The VMM asked to be notified when the window
					// opens (§8.2's extra exit per interrupt).
					v.WindowWanted = false
					if err := k.dispatchExit(ec, &x86.VMExit{Reason: x86.ExitInterruptWindow}); err != nil {
						return
					}
					if !v.PendingValid || !v.Interruptible() {
						continue
					}
				}
				v.PendingValid = false
				v.State.Halted = false
				k.Record(trace.KindInject, uint64(v.PendingVector), uint64(ec.ID), 0, 0)
				k.charge(2 * cost.VMRead) // event-injection VMWRITEs
				if err := v.Interp.Interrupt(v.PendingVector); err != nil {
					k.handleGuestRunError(ec, err)
					continue
				}
			} else if !v.State.Halted {
				v.WindowWanted = true
			}
		}
		if v.State.Halted {
			if v.NoExitDelivery {
				// The guest owns the interrupt hardware: idle to the
				// next platform event like a bare-metal CPU.
				if k.Plat.Queue.Empty() {
					ec.runnable = false
					return
				}
				t := k.Plat.Queue.NextTime()
				if t > deadline {
					clk.AdvanceTo(deadline)
					k.Prof.SkipIdle(k.cpu, clk.Now())
					return
				}
				clk.AdvanceTo(t)
				k.Prof.SkipIdle(k.cpu, clk.Now())
				continue
			}
			// HLT with nothing to deliver: the vCPU blocks until the
			// VMM injects or recalls.
			if !v.PendingValid {
				ec.runnable = false
				return
			}
			if !v.Interruptible() {
				// HLT with IF=0 and no NMI support: wedged guest.
				k.killVM(ec, "halted with interrupts disabled") //nolint:errcheck
				return
			}
			continue
		}

		before := v.Interp.InstRet
		extraBefore := v.Interp.ExtraCycles
		var err error
		if max := k.fuseLimit(v, clk, deadline, pending); max > 1 {
			err = v.Interp.StepBlock(max)
		} else {
			err = v.Interp.Step()
		}
		retired := v.Interp.InstRet - before
		if retired == 0 {
			retired = 1
		}
		clk.Charge(hw.Cycles(retired)*cost.InstructionCost + hw.Cycles(v.Interp.ExtraCycles-extraBefore))
		if err != nil {
			k.handleGuestRunError(ec, err)
		}
	}
	if k.preempt {
		k.Stats.Preemptions++
	}
}

// fuseLimit bounds a fused superblock run: the number of base-cost
// instructions that fit strictly between now and the nearer of the next
// platform event and the run deadline. Within that window the
// sequential loop's per-step top-of-loop work (RunEventsUntil, PIC,
// recall, injection and halt checks) is provably a no-op, so batching
// it at the block boundary cannot change simulated behaviour. Anything
// already pending forces single-stepping — delivery timing must stay
// per-instruction exact (interrupt shadows, halt wake-ups). pending is
// the caller's loop-top PIC.HasPending result: nothing between the loop
// top and the step site can raise a line, so re-querying would only
// duplicate the hottest check in the run loop.
func (k *Kernel) fuseLimit(v *VCPU, clk *hw.Clock, deadline hw.Cycles, pending bool) uint64 {
	if k.Cfg.DisableSuperblocks || v.Interp.Cache == nil {
		return 1
	}
	if pending || v.RecallPending || v.PendingValid {
		v.Interp.Cache.SB.CutPending++
		return 1
	}
	limit := deadline
	if !k.Plat.Queue.Empty() {
		if t := k.Plat.Queue.NextTime(); t < limit {
			limit = t
		}
	}
	now := clk.Now()
	if limit <= now {
		return 1
	}
	ic := k.Plat.Cost.InstructionCost
	if ic == 1 {
		return uint64(limit - now)
	}
	return uint64((limit - now + ic - 1) / ic)
}

// handleGuestRunError routes interpreter errors: VM exits go to the
// portal dispatcher, anything else kills the VM.
func (k *Kernel) handleGuestRunError(ec *EC, err error) {
	if exit, ok := err.(*x86.VMExit); ok {
		k.dispatchExit(ec, exit) //nolint:errcheck // dispatch kills the VM on failure
		return
	}
	k.killVM(ec, fmt.Sprintf("guest execution error: %v", err)) //nolint:errcheck
}

// Interruptible reports whether the vCPU can accept an interrupt now.
func (v *VCPU) Interruptible() bool {
	return v.State.IF() && !v.State.IntShadow
}
