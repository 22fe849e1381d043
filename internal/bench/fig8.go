package bench

import (
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/trace"
)

// Fig8Row is one processor's IPC measurement.
type Fig8Row struct {
	Model      hw.CPUModel
	EntryExit  hw.Cycles // syscall transition (lowermost box)
	SameAS     hw.Cycles // one-way message transfer, same address space
	CrossAS    hw.Cycles // one-way, different address spaces
	TLBEffects hw.Cycles // CrossAS - SameAS
	CrossNs    float64
	PaperNs    float64 // total read off Figure 8
}

// paperFig8Ns are the cross-address-space one-way IPC times read off
// Figure 8 (ns).
var paperFig8Ns = map[hw.CPUModel]float64{
	hw.K8: 164, hw.K10: 152, hw.YNH: 192, hw.CNR: 179, hw.WFD: 131, hw.BLM: 108,
}

// wholeRun returns an error if a ring of the trace overwrote a record,
// so a figure computed from the trace covers the whole run, not its
// tail.
func wholeRun(d *trace.Data) error {
	for cpu, n := range d.Overwritten {
		if n > 0 {
			return fmt.Errorf("cpu%d trace ring overwrote %d records", cpu, n)
		}
	}
	return nil
}

// RunFig8 reproduces Figure 8: the IPC microbenchmark across the six
// Table 1 processors, correlating the user/kernel transition cost with
// the cost of a message transfer between two threads, same and
// different address space.
func RunFig8() (*Table, []Fig8Row, error) {
	var rows []Fig8Row
	var vcycles uint64
	for _, cm := range hw.Models() {
		plat := hw.MustNewPlatform(hw.Config{Model: cm.Model, RAMSize: 32 << 20})
		k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})

		client, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "client", false)
		if err != nil {
			return nil, nil, err
		}
		server, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "server", false)
		if err != nil {
			return nil, nil, err
		}
		handle := func(m *hypervisor.UTCB) error { return nil }
		// Same-AS portal: created inside the client's own domain.
		sameSel := client.Caps.AllocSel()
		if _, err := k.CreatePortal(client, sameSel, "same", 0, 0, handle); err != nil {
			return nil, nil, err
		}
		// Cross-AS portal: leads into the server.
		srvSel := server.Caps.AllocSel()
		if _, err := k.CreatePortal(server, srvSel, "cross", 0, 0, handle); err != nil {
			return nil, nil, err
		}
		crossSel := client.Caps.AllocSel()
		if err := server.Caps.Delegate(srvSel, client.Caps, crossSel, cap.RightsAll); err != nil {
			return nil, nil, err
		}

		// The rows come from the trace through `nova-obs attrib`'s
		// arithmetic: ComputeIPCBreakdown adds the syscall entry, charged
		// before the recorded call→reply window opens, to the average
		// latency and halves it, a call being two one-way transfers. The
		// ring holds all 2×iters calls, three events each (hypercall,
		// ipc-call, ipc-reply).
		const iters = 1000
		k.Observe(hypervisor.Sinks{TraceCapacity: 2 * iters * 3})
		for _, sel := range []cap.Selector{sameSel, crossSel} {
			msg := &hypervisor.UTCB{Words: []uint64{1, 2}}
			for i := 0; i < iters; i++ {
				if err := k.Call(client, sel, msg); err != nil {
					return nil, nil, err
				}
			}
		}
		tr := k.Tracer.Data()
		if err := wholeRun(tr); err != nil {
			return nil, nil, fmt.Errorf("fig8 %s: %w", cm.Model, err)
		}
		ipc := trace.ComputeIPCBreakdown(tr)
		same, cross := hw.Cycles(ipc.SameOneWay), hw.Cycles(ipc.CrossOneWay)
		vcycles += uint64(k.Now())
		rows = append(rows, Fig8Row{
			Model:      cm.Model,
			EntryExit:  cm.SyscallEntryExit,
			SameAS:     same,
			CrossAS:    cross,
			TLBEffects: cross - same,
			CrossNs:    cm.CyclesToNs(cross),
			PaperNs:    paperFig8Ns[cm.Model],
		})
	}

	t := &Table{
		Title:   "Figure 8: IPC microbenchmark (cycles, one-way message transfer)",
		Columns: []string{"cpu", "entry+exit", "ipc path", "tlb effects", "cross-AS total", "ns", "paper ns"},
	}
	for _, r := range rows {
		path := r.SameAS - r.EntryExit
		t.Rows = append(t.Rows, []string{
			r.Model.String(), d(uint64(r.EntryExit)), d(uint64(path)),
			d(uint64(r.TLBEffects)), d(uint64(r.CrossAS)),
			f1(r.CrossNs), f1(r.PaperNs),
		})
	}
	t.Notes = append(t.Notes,
		"paper: extending TLB tags to user address spaces would cut cross-AS IPC cost (the tlb-effects box) — same conclusion here")
	t.VirtualCycles = vcycles
	return t, rows, nil
}
