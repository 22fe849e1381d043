package trace

import "nova/internal/x86"

// Attribution distills a trace into the paper's §8 cost-accounting
// views: a per-exit-reason cost table (where do the cycles of a
// virtualized run go?) and the Figure 8 / Figure 9 box breakdowns that
// the evaluation decomposes by hand. Everything here is computed from
// the ring's records and the cost constants recorded in Costs — no
// access to the live system, so the same numbers come out of a saved
// trace file, and internal/bench computes Figures 8 and 9 with these
// same functions.

// ExitRow attributes the cycles of one VM-exit reason. Total is the
// exit-to-resume time summed over all exits of the reason; Hardware is
// the world-switch component (count × VMTransit); VMM is the portion
// spent inside portal IPC to the user-level monitor (which includes the
// handler's emulation and device-model work); Kernel is the remainder —
// dispatch, VMCS accesses, vTLB maintenance.
type ExitRow struct {
	Reason   string
	Count    uint64
	Total    uint64
	Hardware uint64
	VMM      uint64
	Kernel   uint64
}

// ExitBreakdown scans the event stream and attributes each VM exit's
// duration. The scan is per CPU: between a KindVMExit and its matching
// KindVMResume, any KindIPCReply latency is VMM time. Exits with no
// resume record (a killed VM, or a wrapped ring) are dropped.
func ExitBreakdown(d *Data) []ExitRow {
	n := x86.NumExitReasons
	type acc struct {
		count, total, vmm uint64
	}
	accs := make([]acc, n)
	for _, events := range d.PerCPU {
		cur := -1
		var vmm uint64
		for _, e := range events {
			switch e.Kind {
			case KindVMExit:
				cur = int(e.A0)
				vmm = 0
			case KindIPCReply:
				if cur >= 0 {
					vmm += e.A1
				}
			case KindVMResume:
				r := int(e.A0)
				if r >= 0 && r < n {
					accs[r].count++
					accs[r].total += e.A1
					accs[r].vmm += vmm
				}
				cur = -1
				vmm = 0
			default:
			}
		}
	}
	var rows []ExitRow
	for r, a := range accs {
		if a.count == 0 {
			continue
		}
		hardware := a.count * d.Costs.VMTransit
		kernel := uint64(0)
		if a.total > a.vmm+hardware {
			kernel = a.total - a.vmm - hardware
		}
		rows = append(rows, ExitRow{
			Reason:   x86.ExitReason(r).String(),
			Count:    a.count,
			Total:    a.total,
			Hardware: hardware,
			VMM:      a.vmm,
			Kernel:   kernel,
		})
	}
	return rows
}

// IPCBreakdown is the Figure 8 decomposition of a one-way IPC: the
// syscall entry+exit box, the kernel IPC path, and the TLB effects of
// crossing address spaces.
type IPCBreakdown struct {
	SameCount   uint64
	CrossCount  uint64
	SameOneWay  uint64 // cycles, one-way message transfer, same AS
	CrossOneWay uint64 // cycles, one-way, cross AS
	EntryExit   uint64 // lowermost box: syscall transition
	IPCPath     uint64 // SameOneWay - EntryExit
	TLBEffects  uint64 // CrossOneWay - SameOneWay
}

// ComputeIPCBreakdown averages the KindIPCReply latencies by
// address-space crossing and reconstructs Figure 8's boxes. A call is
// two one-way transfers, and the recorded call-to-reply latency starts
// after the caller's kernel entry, so one-way = (latency + entry
// cost) / 2 — the same arithmetic the bench harness applies to its
// clock deltas.
func ComputeIPCBreakdown(d *Data) IPCBreakdown {
	var sameSum, sameN, crossSum, crossN uint64
	for _, events := range d.PerCPU {
		for _, e := range events {
			if e.Kind != KindIPCReply {
				continue
			}
			if e.A2 != 0 {
				crossSum += e.A1
				crossN++
			} else {
				sameSum += e.A1
				sameN++
			}
		}
	}
	b := IPCBreakdown{SameCount: sameN, CrossCount: crossN, EntryExit: d.Costs.SyscallEntryExit}
	if sameN > 0 {
		b.SameOneWay = (sameSum/sameN + d.Costs.SyscallEntryExit) / 2
	}
	if crossN > 0 {
		b.CrossOneWay = (crossSum/crossN + d.Costs.SyscallEntryExit) / 2
	}
	if b.SameOneWay > b.EntryExit {
		b.IPCPath = b.SameOneWay - b.EntryExit
	}
	if b.CrossOneWay > b.SameOneWay {
		b.TLBEffects = b.CrossOneWay - b.SameOneWay
	}
	return b
}

// VTLBBreakdown is the Figure 9 decomposition of a vTLB miss: the
// hardware exit+resume transition, the six VMREADs establishing the
// cause, and the software fill (guest walk + shadow update).
type VTLBBreakdown struct {
	Fills      uint64
	AvgFill    uint64 // average measured fill duration (cycles)
	PerMiss    uint64 // AvgFill minus the warm-path walk the fill replaces
	ExitResume uint64
	VMReads    uint64
	Fill       uint64
}

// ComputeVTLBBreakdown reconstructs Figure 9's boxes from the ring's
// vtlb-fill durations. The guest-visible per-miss cost is the average
// fill duration minus the shadow-table walk a warm access would have
// paid anyway (two page walk levels), matching the cold-minus-warm
// methodology of the bench kernel. Fills a wrapped ring dropped are
// not in the average.
func ComputeVTLBBreakdown(d *Data) VTLBBreakdown {
	var sum uint64
	b := VTLBBreakdown{
		ExitResume: d.Costs.VMTransit,
		VMReads:    6 * d.Costs.VMRead,
	}
	for _, events := range d.PerCPU {
		for _, e := range events {
			if e.Kind == KindVTLBFill {
				sum += e.A1
				b.Fills++
			}
		}
	}
	if b.Fills == 0 {
		return b
	}
	b.AvgFill = sum / b.Fills
	warm := 2 * d.Costs.PageWalkLevel
	if b.AvgFill > warm {
		b.PerMiss = b.AvgFill - warm
	}
	if b.PerMiss > b.ExitResume+b.VMReads {
		b.Fill = b.PerMiss - b.ExitResume - b.VMReads
	}
	return b
}
