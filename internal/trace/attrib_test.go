package trace

import "testing"

// synthCosts is a cost model for the attribution tests: easy round
// numbers, unrelated to any real CPU.
var synthCosts = Costs{
	SyscallEntryExit: 100,
	VMTransit:        1000,
	VMRead:           40,
	PageWalkLevel:    30,
}

func TestExitBreakdown(t *testing.T) {
	d := &Data{
		Costs: synthCosts,
		Rings: Rings{PerCPU: [][]Event{{
			// One io exit (x86.ExitIO): 3000 cycles total, 800 of them in the VMM.
			{Time: 0, Kind: KindVMExit, A0: 3, A1: 0x8000, A2: 2},
			{Time: 2800, Kind: KindIPCReply, A0: 4, A1: 800, A2: 1},
			{Time: 3000, Kind: KindVMResume, A0: 3, A1: 3000, A2: 2},
			// One ept-violation (x86.ExitEPTViolation): 5000 total, two IPC legs of 700 each.
			{Time: 4000, Kind: KindVMExit, A0: 4, A1: 0x9000, A2: 2},
			{Time: 5000, Kind: KindIPCReply, A0: 4, A1: 700, A2: 1},
			{Time: 6000, Kind: KindIPCReply, A0: 5, A1: 700, A2: 1},
			{Time: 9000, Kind: KindVMResume, A0: 4, A1: 5000, A2: 2},
			// An exit with no resume (ring wrapped): dropped.
			{Time: 10000, Kind: KindVMExit, A0: 3, A1: 0xa000, A2: 2},
		}}},
	}
	rows := ExitBreakdown(d)
	if len(rows) != 2 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	io := rows[0]
	if io.Reason != "io" || io.Count != 1 || io.Total != 3000 ||
		io.Hardware != 1000 || io.VMM != 800 || io.Kernel != 1200 {
		t.Errorf("io row: %+v", io)
	}
	ept := rows[1]
	if ept.Reason != "ept-violation" || ept.Count != 1 || ept.Total != 5000 ||
		ept.Hardware != 1000 || ept.VMM != 1400 || ept.Kernel != 2600 {
		t.Errorf("ept row: %+v", ept)
	}
}

func TestExitBreakdownClampsKernel(t *testing.T) {
	// VMM + hardware exceeding the total must clamp Kernel to 0, not
	// underflow.
	d := &Data{
		Costs: synthCosts,
		Rings: Rings{PerCPU: [][]Event{{
			{Time: 0, Kind: KindVMExit, A0: 1, A2: 2},
			{Time: 100, Kind: KindIPCReply, A0: 4, A1: 900, A2: 1},
			{Time: 200, Kind: KindVMResume, A0: 1, A1: 1200, A2: 2},
		}}},
	}
	rows := ExitBreakdown(d)
	if len(rows) != 1 || rows[0].Kernel != 0 {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestComputeIPCBreakdown(t *testing.T) {
	// Figure 8 reconstruction: same-AS one-way of 300 cycles means a
	// recorded call latency of 2*300 - 100 (entry charged before the
	// recorded window opens) = 500; cross-AS one-way 450 -> latency 800.
	d := &Data{
		Costs: synthCosts,
		Rings: Rings{PerCPU: [][]Event{{
			{Kind: KindIPCReply, A0: 1, A1: 500, A2: 0},
			{Kind: KindIPCReply, A0: 1, A1: 500, A2: 0},
			{Kind: KindIPCReply, A0: 2, A1: 800, A2: 1},
		}}},
	}
	b := ComputeIPCBreakdown(d)
	if b.SameCount != 2 || b.CrossCount != 1 {
		t.Fatalf("counts: %+v", b)
	}
	if b.SameOneWay != 300 || b.CrossOneWay != 450 {
		t.Errorf("one-way: same=%d cross=%d", b.SameOneWay, b.CrossOneWay)
	}
	if b.EntryExit != 100 || b.IPCPath != 200 || b.TLBEffects != 150 {
		t.Errorf("boxes: %+v", b)
	}
	// EntryExit + IPCPath + TLBEffects must reassemble the cross-AS
	// total — the defining identity of the Figure 8 stack.
	if b.EntryExit+b.IPCPath+b.TLBEffects != b.CrossOneWay {
		t.Errorf("boxes do not stack to the cross-AS total: %+v", b)
	}
}

func TestComputeVTLBBreakdown(t *testing.T) {
	// Figure 9 reconstruction: fills averaging 1500 cycles, one on each
	// CPU; warm walk 2*30; per-miss 1440 = transit 1000 + vmreads 240 +
	// fill 200. The flush and the exit are not fills.
	d := &Data{
		Costs: synthCosts,
		Rings: Rings{PerCPU: [][]Event{
			{{Kind: KindVTLBFill, A0: 0x1000, A1: 1400}, {Kind: KindVTLBFlush, A0: 3}},
			{{Kind: KindVMExit, A0: 1, A1: 900}, {Kind: KindVTLBFill, A0: 0x2000, A1: 1600}},
		}},
	}
	b := ComputeVTLBBreakdown(d)
	if b.Fills != 2 || b.AvgFill != 1500 || b.PerMiss != 1440 {
		t.Fatalf("breakdown: %+v", b)
	}
	if b.ExitResume != 1000 || b.VMReads != 240 || b.Fill != 200 {
		t.Errorf("boxes: %+v", b)
	}
	if b.ExitResume+b.VMReads+b.Fill != b.PerMiss {
		t.Errorf("boxes do not stack to the per-miss total: %+v", b)
	}
}

func TestComputeVTLBBreakdownEmpty(t *testing.T) {
	d := &Data{Costs: synthCosts}
	b := ComputeVTLBBreakdown(d)
	if b.Fills != 0 || b.PerMiss != 0 || b.Fill != 0 {
		t.Errorf("empty trace produced fills: %+v", b)
	}
}
