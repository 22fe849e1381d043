package hypervisor

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/prof"
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
			if queued, due := idle(k.Plat, k.Prof, k.cpu, until); !due {
				if !queued {
					return "idle"
				}
				return "deadline"
			}
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
				if queued, due := idle(k.Plat, k.Prof, k.cpu, deadline); !due {
					if !queued {
						ec.runnable = false
					}
					return
				}
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

		// A recall or injection still waiting here is taken at the next
		// loop top, so it forces single-stepping like a raised PIC line.
		pending = pending || v.RecallPending || v.PendingValid
		until := deadline
		if k.Prof != nil {
			until = min(until, profSample(k.Prof, ec.CPU, clk.Now(), &v.State, v.profRead))
		}
		window := fuseLimit(k.Plat, clk.Now(), until, pending)
		if err := step(v.Interp, clk, cost.InstructionCost, window); err != nil {
			k.handleGuestRunError(ec, err)
		}
	}
	if k.preempt {
		k.Stats.Preemptions++
	}
}

// step is the execution core of both run loops: one instruction, or a
// fused run of the instructions that start within window cycles
// (x86.StepBlock), then one batched charge of the base cost per retired
// instruction plus the extra latency of slow ones. An instruction that
// faults into the guest or exits retires nothing but still costs one
// base instruction. A *x86.VMExit in err belongs to the interpreter or
// the guest env and stays valid until ip steps again, so callers
// dispatch it first.
func step(ip *x86.Interp, clk *hw.Clock, instCost, window hw.Cycles) error {
	before := ip.InstRet
	extraBefore := ip.ExtraCycles
	var err error
	if window > instCost {
		err = ip.StepBlock(uint64(window), uint64(instCost))
	} else {
		err = ip.Step()
	}
	retired := ip.InstRet - before
	if retired == 0 {
		retired = 1
	}
	clk.Charge(hw.Cycles(retired)*instCost + hw.Cycles(ip.ExtraCycles-extraBefore))
	return err
}

// fuseLimit is the window of a fused run: the cycles from now to the
// nearer of the next platform event and until, which is the run
// deadline or, with a profiler attached, the next sample point if that
// comes first. StepBlock runs the instructions that start strictly
// inside it, so the run loops' per-step top-of-loop work
// (RunEventsUntil, PIC, recall, injection and halt checks, profSample)
// is provably a no-op for every instruction but the first, and
// batching it at the run's end cannot change simulated behaviour or
// the samples taken. A window of 0 means single-step: anything already
// pending forces it, because delivery timing must stay
// per-instruction exact (interrupt shadows, halt wake-ups). pending
// carries the caller's loop-top PIC.HasPending result: nothing between
// the loop top and the step site can raise a line, so re-querying
// would only duplicate the hottest check in the run loop.
func fuseLimit(plat *hw.Platform, now, until hw.Cycles, pending bool) hw.Cycles {
	if pending {
		return 0
	}
	limit := min(until, plat.Queue.Next)
	if limit <= now {
		return 0
	}
	return limit - now
}

// idle moves an idle or halted CPU's clock to the next platform event,
// or to until if that comes later, and tells the profiler the span was
// idle. It reports whether an event is queued at all (if not, the clock
// stays put) and whether it is due by until (if not, the clock stops at
// until).
func idle(plat *hw.Platform, p *prof.Profiler, cpu int, until hw.Cycles) (queued, due bool) {
	if plat.Queue.Len() == 0 {
		return false, false
	}
	t := plat.Queue.Next
	due = t <= until
	if !due {
		t = until
	}
	clk := &plat.CPUs[cpu].Clock
	clk.AdvanceTo(t)
	p.SkipIdle(cpu, clk.Now())
	return true, due
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
