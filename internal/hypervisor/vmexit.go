package hypervisor

import (
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// PortalSelector returns the conventional capability-space selector at
// which a VM's portal for the given exit reason is installed. During VM
// creation the VMM delegates one portal capability per event type into
// the VM's capability space (§5.2).
func PortalSelector(r x86.ExitReason) cap.Selector { return cap.Selector(r) }

// PortalSelectorFor is the multiprocessor form: every virtual CPU has
// its own set of VM-exit portals and a dedicated handler (§7.5).
func PortalSelectorFor(r x86.ExitReason, vcpu int) cap.Selector {
	return cap.Selector(vcpu)*32 + cap.Selector(r)
}

// dispatchExit delivers a VM exit to the handler its portal designates.
// vTLB-maintenance events are handled inside the microhypervisor; all
// other events travel to the user-level VMM as an IPC message carrying
// the MTD-selected guest state (§5.2, §8.4).
func (k *Kernel) dispatchExit(ec *EC, exit *x86.VMExit) error {
	if exit.Reason < 0 || int(exit.Reason) >= x86.NumExitReasons {
		// The exit record crosses the guest/host boundary; a reason
		// outside the architectural set means corrupted guest state.
		return k.killVM(ec, fmt.Sprintf("malformed VM exit reason %d", exit.Reason))
	}
	v := ec.VCPU
	w := k.exitBegin(ec, exit.Reason, 0)
	cost := k.Plat.Cost

	// vTLB-related intercepts never leave the kernel (§8.4: "all
	// virtualization events, except for those related to the virtual
	// TLB, require a message to be sent to the VMM").
	if v.Shadow != nil && k.handleVTLBExit(ec, exit) {
		k.flushOnWorldSwitch(ec)
		k.charge(cost.VMTransitCost(k.tagged()) / 8) // resume tail
		k.exitEnd(w)
		return nil
	}

	c, err := ec.PD.Caps.LookupTyped(PortalSelectorFor(exit.Reason, v.Index), cap.ObjPortal, cap.RightCall)
	if err != nil {
		return k.killVM(ec, fmt.Sprintf("no portal for %v (vcpu %d): %v", exit.Reason, v.Index, err))
	}
	pt := c.Obj.(*Portal)
	if pt.dead || pt.PD.dead {
		return k.killVM(ec, fmt.Sprintf("portal for %v leads to dead domain", exit.Reason))
	}

	mtd := pt.MTD
	if k.Cfg.DisableMTDOpt {
		mtd = MTDAll
	}
	// Reading the selected state out of the VMCS (§5.2: the MTD
	// "minimizes the amount of state that must be read from the VMCS").
	k.charge(hw.Cycles(mtd.FieldCount()) * cost.VMRead)

	utcb := ec.UTCB
	utcb.MTD = mtd
	utcb.Exit = *exit
	utcb.State = x86.CPUState{}
	CopyState(&utcb.State, &v.State, mtd)
	utcb.InjectValid = false
	utcb.WindowRequest = false

	if err := k.portalCall(ec.PD, pt, utcb, mtd.WordCount()); err != nil {
		return k.killVM(ec, fmt.Sprintf("VMM handler for %v failed: %v", exit.Reason, err))
	}

	// Install the reply state (VMWRITEs) and resume.
	k.charge(hw.Cycles(mtd.FieldCount()) * cost.VMRead)
	eipBefore := v.State.EIP
	CopyState(&v.State, &utcb.State, mtd)
	if v.State.EIP != eipBefore {
		// The VMM skipped or emulated the exiting instruction, so any
		// STI/MOV-SS interrupt shadow has architecturally expired.
		v.State.IntShadow = false
	}
	if utcb.InjectValid {
		v.PendingValid = true
		v.PendingVector = utcb.InjectVector
	}
	if utcb.WindowRequest {
		v.WindowWanted = true
	}
	k.flushOnWorldSwitch(ec)
	k.exitEnd(w)
	return nil
}

// exitWindow is one VM exit in flight.
type exitWindow struct {
	ec     *EC
	reason x86.ExitReason
	t0     hw.Cycles
}

// exitBegin opens a VM exit on every path (vTLB-consumed, portal, host
// interrupt; vec is the host vector of an external-interrupt exit) and
// charges the guest→host world switch. The exit runs on ec's dispatch,
// so recording it also counts it in the vCPU's Exits.
func (k *Kernel) exitBegin(ec *EC, reason x86.ExitReason, vec uint64) exitWindow {
	w := exitWindow{ec: ec, reason: reason, t0: k.Now()}
	k.Record(trace.KindVMExit, uint64(reason), uint64(ec.VCPU.State.EIP), uint64(ec.ID), vec)
	// World switch guest -> host (+ the TLB flush if untagged; the
	// refill cost then emerges from subsequent misses).
	k.charge(k.Plat.Cost.VMTransitCost(k.tagged()))
	k.flushOnWorldSwitch(ec)
	return w
}

// exitEnd closes a VM exit: the guest resumes.
func (k *Kernel) exitEnd(w exitWindow) {
	k.Record(trace.KindVMResume, uint64(w.reason), uint64(k.Now()-w.t0), uint64(w.ec.ID), 0)
}

// handleVTLBExit processes CR accesses and INVLPG for shadow-paging
// VMs entirely inside the kernel (§5.3). It reports whether the event
// was consumed.
func (k *Kernel) handleVTLBExit(ec *EC, exit *x86.VMExit) bool {
	v := ec.VCPU
	cost := k.Plat.Cost
	tlb := k.Plat.CPUs[ec.CPU].TLB
	switch exit.Reason {
	case x86.ExitCRAccess:
		k.charge(6 * cost.VMRead)
		if exit.CRWrite {
			switch exit.CR {
			case 0:
				flush := (v.State.CR0^exit.CRVal)&(x86.CR0PG|x86.CR0PE|x86.CR0WP) != 0
				v.State.CR0 = exit.CRVal
				if flush {
					v.Shadow.Flush()
					tlb.FlushTag(ec.PD.Tag)
					k.Record(trace.KindVTLBFlush, 0, uint64(ec.ID), 0, 0)
				}
			case 3:
				v.State.CR3 = exit.CRVal
				v.Shadow.Flush()
				tlb.FlushTag(ec.PD.Tag)
				k.Record(trace.KindVTLBFlush, 3, uint64(ec.ID), 0, 0)
			case 4:
				v.State.CR4 = exit.CRVal
				v.Shadow.Flush()
				tlb.FlushTag(ec.PD.Tag)
				k.Record(trace.KindVTLBFlush, 4, uint64(ec.ID), 0, 0)
			case 2:
				v.State.CR2 = exit.CRVal
			}
		} else {
			var val uint32
			switch exit.CR {
			case 0:
				val = v.State.CR0
			case 2:
				val = v.State.CR2
			case 3:
				val = v.State.CR3
			case 4:
				val = v.State.CR4
			}
			// The GPR operand decodes from a 3-bit modrm field; mask so
			// a malformed exit record cannot index past the register file.
			v.State.GPR[exit.CRGPR&7] = val
		}
		v.State.EIP += uint32(exit.InstLen)
		return true
	case x86.ExitINVLPG:
		k.charge(6 * cost.VMRead)
		v.Shadow.Invalidate(exit.Linear)
		tlb.FlushVA(ec.PD.Tag, exit.Linear)
		k.Record(trace.KindVTLBFlush, trace.CauseINVLPG, uint64(ec.ID), uint64(exit.Linear), 0)
		v.State.EIP += uint32(exit.InstLen)
		return true
	default:
		// Every other exit reason travels to the user-level VMM (§8.4).
		return false
	}
}

// killVM terminates a virtual machine after an unrecoverable condition.
// Isolation holds: only this VM (and its VMM association) is affected.
func (k *Kernel) killVM(ec *EC, reason string) error {
	ec.dead = true
	ec.runnable = false
	k.Killed = append(k.Killed, fmt.Sprintf("%s: %s", ec.Name, reason))
	return fmt.Errorf("hypervisor: VM %s killed: %s", ec.Name, reason)
}

// vectorToLine maps a host interrupt vector back to its IRQ line under
// the kernel's PIC programming (master base 0x20, slave base 0x28).
func vectorToLine(vec uint8) int {
	switch {
	case vec >= 0x20 && vec < 0x28:
		return int(vec - 0x20)
	case vec >= 0x28 && vec < 0x30:
		return int(vec-0x28) + 8
	}
	return -1
}

// handleHostInterrupts drains pending host interrupts. If they arrive
// while a guest runs, each one forces a VM exit first (§8.2 "each
// hardware interrupt causes a VM exit"). Interrupts are then routed per
// AssignGSI: a semaphore-up for driver ECs, or direct injection for
// passthrough VMs.
func (k *Kernel) handleHostInterrupts(guest *EC) {
	for k.Plat.PIC.HasPending() {
		vec, ok := k.Plat.PIC.Acknowledge()
		if !ok {
			return
		}
		var w exitWindow
		preempted := ^uint64(0) // the kernel/idle loop was interrupted
		if guest != nil {
			preempted = uint64(guest.ID)
			// The exit record carries the host vector and the preempted
			// vCPU's identity, so external-interrupt exits are
			// distinguishable from each other and from synchronous ones.
			w = k.exitBegin(guest, x86.ExitExternalInterrupt, uint64(vec))
		}
		// Kernel interrupt path: vector dispatch, EOI at the PIC.
		k.charge(k.Plat.Cost.SyscallEntryExit / 2)
		line := vectorToLine(vec)
		k.Record(trace.KindHostIRQ, uint64(vec), uint64(int64(line)), preempted, 0)
		if line >= 8 {
			k.Plat.PIC.PortWrite(0xa0, 1, 0x20)
		}
		k.Plat.PIC.PortWrite(0x20, 1, 0x20)
		if line >= 0 {
			if r, ok := k.gsiVCPU[line]; ok && !r.ec.dead {
				v := r.ec.VCPU
				v.PendingValid = true
				v.PendingVector = r.vector
				k.wakeVCPU(r.ec)
			} else if sm, ok := k.gsiSem[line]; ok {
				k.semUp(sm)
			}
		}
		if guest != nil {
			k.exitEnd(w)
		}
	}
}
