package hypervisor

import (
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/span"
	"nova/internal/trace"
)

// ipcPerWord is the marginal transfer cost per message word (§8.4:
// "2–3 cycles per word").
const ipcPerWord = 3

// portalLookupCost approximates the capability lookup on the IPC path.
const portalLookupCost = 12

// Call performs synchronous IPC through a portal capability: the
// kernel looks the capability up in the caller's space, donates the
// caller's scheduling context to the handler EC, switches address
// spaces, delivers the message, and blocks the caller until the handler
// invokes the reply capability (§5.2).
//
// In this model the handler's code runs inline (it executes on the
// donated SC anyway — that is the whole point of donation: no scheduler
// involvement, Figure 3), so Call returns when the reply arrives. The
// handler replies by mutating msg in place.
func (k *Kernel) Call(caller *PD, sel cap.Selector, msg *UTCB) error {
	if err := k.syscallEnter(caller); err != nil {
		return err
	}
	c, err := caller.Caps.LookupTyped(sel, cap.ObjPortal, cap.RightCall)
	if err != nil {
		return err
	}
	pt := c.Obj.(*Portal)
	if pt.dead || pt.PD.dead {
		return ErrDead
	}
	// A hypercall-initiated portal call with no enclosing request is its
	// own span (a standalone IPC round-trip). Calls made on behalf of an
	// in-flight request (e.g. the VMM forwarding a disk command) already
	// carry the request's span via the active stack — don't nest.
	if id, _ := k.Spans.Current(k.cpu); id == 0 {
		sp := k.Spans.Open(k.cpu, k.Now(), span.ClassIPC, span.SegIPC, pt.UID)
		k.Spans.Begin(k.cpu, sp, span.SegIPC)
		err := k.portalCall(caller, pt, msg, len(msg.Words))
		k.Spans.End(k.cpu)
		status := span.StatusOK
		if err != nil {
			status = span.StatusError
		}
		k.Spans.Close(k.cpu, k.Now(), sp, status)
		return err
	}
	return k.portalCall(caller, pt, msg, len(msg.Words))
}

// portalCall is the kernel-internal portal traversal, shared between
// the hypercall path and VM-exit delivery. words is the payload size
// for the per-word cost.
func (k *Kernel) portalCall(from *PD, pt *Portal, msg *UTCB, words int) error {
	t0 := k.Now()
	crossAS := uint64(0)
	if pt.PD != from {
		crossAS = 1
	}
	k.Record(trace.KindIPCCall, pt.UID, uint64(words), crossAS, uint64(from.ID))

	// The CPU's current request span (if any) enters the kernel-IPC
	// segment for the portal traversal; the caller's segment is restored
	// when the reply completes. The handler itself (running inline on the
	// donated SC) transitions to its own segment and back.
	sp, prevSeg := k.Spans.Current(k.cpu)
	k.Spans.Transition(k.cpu, t0, sp, span.SegIPC)

	cost := hw.Cycles(portalLookupCost) + k.Plat.Cost.SyscallEntryExit/8 // portal traversal
	cost += hw.Cycles(words * ipcPerWord)
	if pt.PD != from {
		// Cross-address-space: without user TLB tags, the address-space
		// switch flushes and later repopulates the user-side TLB
		// entries ("TLB effects", Figure 8). User components are host
		// code whose TLB footprint is folded into the refill constant;
		// guest-tagged entries are governed by VPID on the world
		// switch, not here.
		cost += k.Plat.Cost.TLBRefill
	}
	if k.Cfg.DisableDirectSwitch {
		// Ablation: instead of switching directly to the handler on the
		// donated SC, take a trip through the scheduler.
		cost += k.Plat.Cost.SyscallEntryExit + hw.Cycles(60)
	}
	k.charge(cost)

	// Typed items: memory delegations riding on the message land in the
	// receiver's space, clipped to the portal's receive window (§6).
	if len(msg.Delegations) > 0 {
		msg.Delegated = 0
		for _, it := range msg.Delegations {
			if it.NPages <= 0 {
				continue
			}
			if pt.AcceptPages <= 0 ||
				it.DstPage < pt.AcceptBase ||
				it.DstPage+uint32(it.NPages) > pt.AcceptBase+uint32(pt.AcceptPages) {
				continue // outside the receiver's window: dropped
			}
			if err := from.Mem.Delegate(it.SrcPage, pt.PD.Mem, it.DstPage, it.NPages, it.Rights); err != nil {
				continue
			}
			k.charge(hw.Cycles(it.NPages) * 8) // mapping-database insertion
			msg.Delegated++
		}
		msg.Delegations = msg.Delegations[:0]
	}

	pt.Calls++
	if pt.Handle == nil {
		return fmt.Errorf("hypervisor: portal %s has no handler", pt.Name)
	}
	// The handler runs here, on the donated scheduling context: the
	// entire handling is accounted to the caller's time quantum (§5.2).
	// The kernel creates the reply capability before the handler runs
	// and destroys it on return.
	if err := pt.Handle(msg); err != nil {
		return err
	}

	// Reply path: the handler's reply hypercall (its own kernel
	// entry/exit) plus the switch back.
	reply := k.Plat.Cost.SyscallEntryExit + hw.Cycles(portalLookupCost) + hw.Cycles(words*ipcPerWord)
	if pt.PD != from {
		reply += k.Plat.Cost.TLBRefill
	}
	k.charge(reply)
	end := k.Now()
	k.Spans.Transition(k.cpu, end, sp, prevSeg)
	k.Record(trace.KindIPCReply, pt.UID, uint64(end-t0), crossAS, 0)
	return nil
}

// IPCCost returns the cycle cost of one one-way message transfer of the
// given word count, for the Figure 8 microbenchmark: kernel entry/exit,
// the IPC path (capability lookup, portal traversal, context switch and
// payload copy), and the TLB effects of a cross-address-space switch.
func (k *Kernel) IPCCost(words int, crossAS bool) hw.Cycles {
	c := k.Plat.Cost.SyscallEntryExit +
		hw.Cycles(portalLookupCost) + k.Plat.Cost.SyscallEntryExit/8 +
		hw.Cycles(words*ipcPerWord)
	if crossAS {
		c += k.Plat.Cost.TLBRefill
	}
	return c
}
