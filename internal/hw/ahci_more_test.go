package hw

import "testing"

func TestAHCIMultipleSlotsInFlight(t *testing.T) {
	a, mem, q, clk, irqs := newTestAHCI(t)
	// Three commands in slots 0..2, different LBAs and buffers.
	for slot := 0; slot < 3; slot++ {
		clb := PhysAddr(0x1000)
		ctba := PhysAddr(0x2000 + slot*0x200)
		buf := PhysAddr(0x8000 + slot*0x1000)
		// Header for this slot.
		hdrAddr := clb + PhysAddr(slot*32)
		mem.Write32(hdrAddr, 5|1<<16)
		mem.Write32(hdrAddr+8, uint32(ctba))
		mem.Write32(hdrAddr+12, 0)
		// CFIS: read 1 sector at LBA 100+slot.
		mem.Write8(ctba+0, 0x27)
		mem.Write8(ctba+1, 0x80)
		mem.Write8(ctba+2, 0x25)
		mem.Write8(ctba+4, uint8(100+slot))
		mem.Write8(ctba+7, 0x40)
		mem.Write8(ctba+12, 1)
		// PRDT.
		mem.Write32(ctba+0x80, uint32(buf))
		mem.Write32(ctba+0x80+12, SectorSize-1)
	}
	ahciStart(a, 0x1000)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 0b111)
	if ci := a.MMIORead(ahciPortBase+pxCI, 4); ci != 0b111 {
		t.Fatalf("CI = %#b", ci)
	}
	drain(q, clk)
	if ci := a.MMIORead(ahciPortBase+pxCI, 4); ci != 0 {
		t.Errorf("CI = %#b after drain", ci)
	}
	if *irqs == 0 {
		t.Error("no interrupts")
	}
	// Each buffer holds its own sector.
	for slot := 0; slot < 3; slot++ {
		want := make([]byte, SectorSize)
		a.Disk().ReadSectors(uint64(100+slot), 1, want) //nolint:errcheck
		got := mem.ReadBytes(PhysAddr(0x8000+slot*0x1000), SectorSize)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slot %d data mismatch at %d", slot, i)
			}
		}
	}
	if a.Stats.Commands != 3 {
		t.Errorf("commands = %d", a.Stats.Commands)
	}
}

func TestAHCIScatterGatherMultiPRD(t *testing.T) {
	a, mem, q, clk, _ := newTestAHCI(t)
	clb, ctba := PhysAddr(0x1000), PhysAddr(0x2000)
	// One 2-sector read scattered into two discontiguous buffers.
	mem.Write32(clb, 5|2<<16)
	mem.Write32(clb+8, uint32(ctba))
	mem.Write8(ctba+0, 0x27)
	mem.Write8(ctba+1, 0x80)
	mem.Write8(ctba+2, 0x25)
	mem.Write8(ctba+4, 40)
	mem.Write8(ctba+7, 0x40)
	mem.Write8(ctba+12, 2)
	mem.Write32(ctba+0x80, 0x8000)
	mem.Write32(ctba+0x80+12, SectorSize-1)
	mem.Write32(ctba+0x90, 0xa000)
	mem.Write32(ctba+0x90+12, SectorSize-1)
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
	drain(q, clk)

	want := make([]byte, 2*SectorSize)
	a.Disk().ReadSectors(40, 2, want) //nolint:errcheck
	got1 := mem.ReadBytes(0x8000, SectorSize)
	got2 := mem.ReadBytes(0xa000, SectorSize)
	for i := 0; i < SectorSize; i++ {
		if got1[i] != want[i] || got2[i] != want[SectorSize+i] {
			t.Fatalf("scatter mismatch at %d", i)
		}
	}
}

func TestNICRingWrapAround(t *testing.T) {
	n, _, _, _, _ := newTestNIC(0)
	// Drive the 8-slot ring through 20 packets, returning slots as a
	// driver would: RDT = just-consumed slot.
	for i := 0; i < 20; i++ {
		if !n.Receive([]byte{byte(i), 1, 2, 3}) {
			t.Fatalf("receive %d failed", i)
		}
		head := n.MMIORead(nicRDH, 4)
		n.MMIOWrite(nicRDT, 4, (head+7)%8) // keep 7 slots available
	}
	if n.Stats.PacketsReceived != 20 {
		t.Errorf("received = %d", n.Stats.PacketsReceived)
	}
	if n.Stats.PacketsDropped != 0 {
		t.Errorf("drops = %d", n.Stats.PacketsDropped)
	}
	if h := n.MMIORead(nicRDH, 4); h != 20%8 {
		t.Errorf("RDH = %d, want %d", h, 20%8)
	}
}

func TestPITOneShotMode(t *testing.T) {
	q := NewEventQueue()
	var clk Clock
	ticks := 0
	pit := NewI8254(q, clk.Now, 1000, func() { ticks++ })
	pit.PortWrite(0x43, 1, 0x30) // channel 0, lobyte/hibyte, mode 0
	pit.PortWrite(0x40, 1, 0x10)
	pit.PortWrite(0x40, 1, 0x00)
	for q.Len() > 0 {
		clk.AdvanceTo(q.Next)
		q.PopDue(clk.Now())
	}
	if ticks != 1 {
		t.Errorf("one-shot fired %d times", ticks)
	}
	pit.Stop()
}

func TestKeyboardControllerModel(t *testing.T) {
	raised := 0
	k := NewI8042(func() { raised++ })
	if k.Pending() {
		t.Error("pending when empty")
	}
	if st := k.PortRead(0x64, 1); st&1 != 0 {
		t.Error("OBF set when empty")
	}
	k.Inject(0x1c, 0x9c)
	if !k.Pending() || raised == 0 {
		t.Error("injection did not arm")
	}
	if st := k.PortRead(0x64, 1); st&1 == 0 {
		t.Error("OBF clear with data")
	}
	if sc := k.PortRead(0x60, 1); sc != 0x1c {
		t.Errorf("first scancode = %#x", sc)
	}
	if sc := k.PortRead(0x60, 1); sc != 0x9c {
		t.Errorf("second scancode = %#x", sc)
	}
	if k.Pending() {
		t.Error("still pending after drain")
	}
	// Overflow drops.
	for i := 0; i < 32; i++ {
		k.Inject(byte(i))
	}
	if k.Drops == 0 {
		t.Error("no drops on overflow")
	}
}

// TestAHCICommandListThatWrapsFails programs, through the platform's
// MMIO routing, a command list that ends past 2^64 on a platform without
// an IOMMU, where the controller fetches it by direct DMA. The fetch
// fails and the slot must fail with TFES.
func TestAHCICommandListThatWrapsFails(t *testing.T) {
	p := MustNewPlatform(Config{RAMSize: 1 << 20, DisableIOMMU: true})
	port := AHCIMMIOBase + ahciPortBase
	p.Mem.Write32(port+pxCLB, 0xffffffe0)
	p.Mem.Write32(port+pxCLBU, 0xffffffff)
	p.Mem.Write32(port+pxCMD, pxcmdST|pxcmdFRE)
	p.Mem.Write32(port+pxCI, 1)
	if is := p.Mem.Read32(port + pxIS); is&pxisTFES == 0 {
		t.Errorf("PxIS = %#x, want TFES", is)
	}
	if ci := p.Mem.Read32(port + pxCI); ci != 0 {
		t.Errorf("PxCI = %#x, want the slot retired", ci)
	}
	if p.AHCI.Stats.Errors != 1 {
		t.Errorf("errors = %d, want 1", p.AHCI.Stats.Errors)
	}
}
