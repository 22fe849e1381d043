package bench

import (
	"fmt"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/trace"
)

// Fig9Row is one vTLB-miss measurement.
type Fig9Row struct {
	Label      string
	Model      hw.CPUModel
	VPID       bool
	PerMiss    hw.Cycles // measured cost of one vTLB miss
	ExitResume hw.Cycles // cost-model transition component
	VMReads    hw.Cycles // six VMREADs
	Fill       hw.Cycles // remainder: walk + shadow update
	Ns         float64
	PaperNs    float64
}

// paperFig9Ns are the per-miss totals read off Figure 9 (ns).
var paperFig9Ns = map[string]float64{
	"YNH": 1355, "CNR": 1140, "WFD": 694, "BLM": 527, "BLM VPID": 491,
}

// vtlbMissKernel measures the vTLB miss cost from inside the guest:
// it timestamps a cold pass (shadow flushed by a CR3 reload) and a warm
// pass over the same pages; the difference per page is the miss cost.
func vtlbMissKernel(pages int) guest.KernelOpts {
	return guest.KernelOpts{
		Paging: true,
		MapMB:  8,
		Workload: fmt.Sprintf(`
	call touch_pages   ; populate the shadow once
	mov eax, cr3
	mov cr3, eax       ; vTLB flush
	rdtsc
	mov [%#[1]x], eax
	mov [%#[1]x + 4], edx
	call touch_pages   ; cold pass: every touch is a vTLB miss
	rdtsc
	mov [%#[1]x + 8], eax
	mov [%#[1]x + 12], edx
	call touch_pages   ; warm pass
	rdtsc
	mov [%#[1]x + 16], eax
	mov [%#[1]x + 20], edx
	jmp finish
touch_pages:
	mov esi, 0x100000
	mov ecx, %[2]d
tp_loop:
	mov eax, [esi]
	add esi, 4096
	dec ecx
	jnz tp_loop
	ret
`, guest.ParamBase, pages),
	}
}

// RunFig9 reproduces Figure 9: the vTLB miss microbenchmark across the
// Intel processors, including the VPID effect on the Core i7.
func RunFig9() (*Table, []Fig9Row, error) {
	const pages = 256
	type spec struct {
		label string
		model hw.CPUModel
		vpid  bool
	}
	specs := []spec{
		{"YNH", hw.YNH, false},
		{"CNR", hw.CNR, false},
		{"WFD", hw.WFD, false},
		{"BLM", hw.BLM, false},
		{"BLM VPID", hw.BLM, true},
	}
	img := guest.MustBuild(vtlbMissKernel(pages))
	var rows []Fig9Row
	var vcycles uint64
	res := &Resources{}
	for _, s := range specs {
		r, err := guest.NewRunner(guest.RunnerConfig{
			Model: s.model, Mode: guest.ModeVirtVTLB, UseVPID: s.vpid,
			SchedTimerHz: -1, // no preemption noise in the microbenchmark
			// A ring for every event of the run (590 at 256 pages).
			Sinks: hypervisor.Sinks{TraceCapacity: 4096},
		}, img)
		if err != nil {
			return nil, nil, err
		}
		cy, err := r.RunUntilDone(1 << 40)
		if err != nil {
			return nil, nil, fmt.Errorf("fig9 %s: %w", s.label, err)
		}
		vcycles += uint64(cy)
		res.AddRun(r)
		rd64 := func(off uint64) uint64 {
			return uint64(r.ReadGuest32(guest.ParamBase+off)) |
				uint64(r.ReadGuest32(guest.ParamBase+off+4))<<32
		}
		t0, t1, t2 := rd64(0), rd64(8), rd64(16)
		perMiss := hw.Cycles((t1 - t0 - (t2 - t1)) / pages)
		cm := r.Plat.Cost

		// Cross-check against the kernel's own instrumentation, through
		// the arithmetic `nova-obs attrib` renders: the ring holds every
		// vTLB-fill duration of the run, and their average less the warm
		// shadow-hit walk must land on the guest-observed per-miss
		// figure. Catches drift between the cost model and the trace.
		tr := r.K.Tracer.Data()
		if err := wholeRun(tr); err != nil {
			return nil, nil, fmt.Errorf("fig9 %s: %w", s.label, err)
		}
		vtlb := trace.ComputeVTLBBreakdown(tr)
		if vtlb.Fills == 0 {
			return nil, nil, fmt.Errorf("fig9 %s: tracer saw no vTLB fills", s.label)
		}
		traceMiss := hw.Cycles(vtlb.PerMiss)
		if diff := int64(traceMiss) - int64(perMiss); diff < -int64(perMiss)/10 || diff > int64(perMiss)/10 {
			return nil, nil, fmt.Errorf("fig9 %s: trace-derived miss cost %d disagrees with guest rdtsc %d",
				s.label, traceMiss, perMiss)
		}
		transit := cm.VMTransitCost(s.vpid)
		vmreads := 6 * cm.VMRead
		fill := hw.Cycles(0)
		if perMiss > transit+vmreads {
			fill = perMiss - transit - vmreads
		}
		rows = append(rows, Fig9Row{
			Label: s.label, Model: s.model, VPID: s.vpid,
			PerMiss: perMiss, ExitResume: transit, VMReads: vmreads, Fill: fill,
			Ns:      cm.CyclesToNs(perMiss),
			PaperNs: paperFig9Ns[s.label],
		})
	}

	t := &Table{
		Title:   "Figure 9: vTLB miss microbenchmark (cycles per miss)",
		Columns: []string{"cpu", "exit+resume", "vmread x6", "vtlb fill", "total", "ns", "paper ns"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Label, d(uint64(r.ExitResume)), d(uint64(r.VMReads)),
			d(uint64(r.Fill)), d(uint64(r.PerMiss)), f1(r.Ns), f1(r.PaperNs),
		})
	}
	t.Notes = append(t.Notes,
		"paper: the hardware transition accounts for ~80% of the total miss cost, falling with each CPU generation",
		"per-miss totals cross-checked against the per-miss cost nova-obs attrib computes from the run's vtlb-fill events")
	t.VirtualCycles = vcycles
	t.Resources = res
	return t, rows, nil
}
