package hw

import (
	"encoding/binary"
	"testing"
)

func TestPITPeriodicTicks(t *testing.T) {
	q := NewEventQueue()
	var clk Clock
	ticks := 0
	pit := NewI8254(q, clk.Now, 2670, func() { ticks++ })
	// Program mode 2, reload 11932 (~100 Hz).
	pit.PortWrite(0x43, 1, 0x34)
	pit.PortWrite(0x40, 1, 11932&0xff)
	pit.PortWrite(0x40, 1, 11932>>8)
	if pit.Period() == 0 {
		t.Fatal("period not programmed")
	}
	// Run 10 periods of virtual time.
	horizon := clk.Now() + 10*pit.Period()
	for q.Next <= horizon {
		clk.AdvanceTo(q.Next)
		q.PopDue(clk.Now())
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	pit.Stop()
}

func TestPITPeriodMatchesFrequency(t *testing.T) {
	q := NewEventQueue()
	var clk Clock
	pit := NewI8254(q, clk.Now, 1000, func() {}) // 1 GHz for easy math
	pit.PortWrite(0x43, 1, 0x34)
	pit.PortWrite(0x40, 1, 0xff)
	pit.PortWrite(0x40, 1, 0xff) // reload 65535 -> ~54.9 ms
	wantNs := uint64(65535) * 1e9 / PITInputHz
	got := uint64(pit.Period()) // 1 cycle = 1 ns at 1 GHz
	if diff := int64(got) - int64(wantNs); diff < -1000 || diff > 1000 {
		t.Errorf("period = %d ns, want ~%d ns", got, wantNs)
	}
	pit.Stop()
}

func TestSerialOutputAndDLAB(t *testing.T) {
	s := NewSerial8250(0x3f8)
	for _, c := range []byte("hi\n") {
		s.PortWrite(0x3f8, 1, uint32(c))
	}
	if s.Output() != "hi\n" {
		t.Errorf("output = %q", s.Output())
	}
	// DLAB redirects register 0 to the divisor latch.
	s.PortWrite(0x3fb, 1, 0x83) // LCR with DLAB
	s.PortWrite(0x3f8, 1, 0x0c) // DLL: 9600 baud
	s.PortWrite(0x3f9, 1, 0x00)
	s.PortWrite(0x3fb, 1, 0x03) // clear DLAB
	if s.Output() != "hi\n" {
		t.Errorf("divisor write leaked into output: %q", s.Output())
	}
	if lsr := s.PortRead(0x3fd, 1); lsr&0x20 == 0 {
		t.Errorf("LSR = %#x, want THR empty", lsr)
	}
}

func TestSerialInput(t *testing.T) {
	s := NewSerial8250(0x3f8)
	s.InjectInput([]byte("ab"))
	if lsr := s.PortRead(0x3fd, 1); lsr&0x01 == 0 {
		t.Error("LSR data-ready not set")
	}
	if got := s.PortRead(0x3f8, 1); got != 'a' {
		t.Errorf("first byte = %c", got)
	}
	if got := s.PortRead(0x3f8, 1); got != 'b' {
		t.Errorf("second byte = %c", got)
	}
	if lsr := s.PortRead(0x3fd, 1); lsr&0x01 != 0 {
		t.Error("data-ready still set after drain")
	}
}

func TestDiskSyntheticContentDeterministic(t *testing.T) {
	d := NewDisk(1000, 67, 8200, 2670)
	a := make([]byte, SectorSize)
	b := make([]byte, SectorSize)
	if err := d.ReadSectors(7, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(7, 1, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthetic content not deterministic")
		}
	}
	if err := d.ReadSectors(8, 1, b); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different sectors returned identical content")
	}
}

func TestDiskWriteReadBack(t *testing.T) {
	d := NewDisk(1000, 67, 8200, 2670)
	w := make([]byte, 2*SectorSize)
	for i := range w {
		w[i] = byte(i)
	}
	if err := d.WriteSectors(10, 2, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 2*SectorSize)
	if err := d.ReadSectors(10, 2, r); err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if r[i] != w[i] {
			t.Fatalf("byte %d: got %d want %d", i, r[i], w[i])
		}
	}
}

func TestDiskBoundsChecks(t *testing.T) {
	d := NewDisk(100, 67, 8200, 2670)
	buf := make([]byte, SectorSize)
	if err := d.ReadSectors(100, 1, buf); err == nil {
		t.Error("read past capacity accepted")
	}
	if err := d.WriteSectors(99, 2, make([]byte, 2*SectorSize)); err == nil {
		t.Error("write past capacity accepted")
	}
	if err := d.ReadSectors(0, 2, buf); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestDiskServiceTimeRegimes(t *testing.T) {
	d := NewDisk(1e6, 67, 8200, 2670)
	// Small request: IOPS-bound. 1/8200 s at 2670 MHz ~ 325,609 cycles.
	small := d.ServiceTime(512)
	large := d.ServiceTime(65536)
	if small >= large {
		t.Errorf("small (%d) >= large (%d) service time", small, large)
	}
	// 512B and 4K are both IOPS-bound: same service time.
	if d.ServiceTime(512) != d.ServiceTime(4096) {
		t.Error("IOPS-bound regime should be size-independent")
	}
	// 64K is bandwidth-bound: 65536/67e6 s.
	wantUS := float64(65536) / 67e6 * 1e6
	gotUS := float64(large) / 2670
	if gotUS < wantUS*0.95 || gotUS > wantUS*1.05 {
		t.Errorf("64K service = %f µs, want ~%f", gotUS, wantUS)
	}
}

func TestDiskScheduleSerializes(t *testing.T) {
	d := NewDisk(1e6, 67, 8200, 2670)
	t1 := d.Schedule(0, 4096)
	t2 := d.Schedule(0, 4096)
	if t2 <= t1 {
		t.Errorf("overlapping requests not serialized: %d then %d", t1, t2)
	}
	if t2-t1 != d.ServiceTime(4096) {
		t.Errorf("second request gap = %d, want %d", t2-t1, d.ServiceTime(4096))
	}
}

// buildAHCIRead writes a one-slot command list + table into mem that
// reads count sectors from lba into bufAddr, and returns the CLB.
func buildAHCIRead(mem *Memory, clb, ctba, bufAddr PhysAddr, lba uint64, count int, write bool) {
	// Command header slot 0.
	dw0 := uint32(5) | 1<<16 // CFL=5 dwords, PRDTL=1
	if write {
		dw0 |= 1 << 6
	}
	mem.Write32(clb+0, dw0)
	mem.Write32(clb+8, uint32(ctba))
	mem.Write32(clb+12, 0)
	// CFIS: H2D register FIS.
	cmd := uint8(ataReadDMAExt)
	if write {
		cmd = ataWriteDMAExt
	}
	mem.Write8(ctba+0, 0x27)
	mem.Write8(ctba+1, 0x80)
	mem.Write8(ctba+2, cmd)
	mem.Write8(ctba+4, uint8(lba))
	mem.Write8(ctba+5, uint8(lba>>8))
	mem.Write8(ctba+6, uint8(lba>>16))
	mem.Write8(ctba+7, 0x40)
	mem.Write8(ctba+8, uint8(lba>>24))
	mem.Write8(ctba+12, uint8(count))
	mem.Write8(ctba+13, uint8(count>>8))
	// PRDT entry 0.
	mem.Write32(ctba+0x80, uint32(bufAddr))
	mem.Write32(ctba+0x80+4, 0)
	mem.Write32(ctba+0x80+12, uint32(count*SectorSize-1))
}

func newTestAHCI(t *testing.T) (*AHCI, *Memory, *EventQueue, *Clock, *int) {
	t.Helper()
	mem := NewMemory(1 << 20)
	q := NewEventQueue()
	clk := &Clock{}
	irqs := new(int)
	disk := NewDisk(1e6, 67, 8200, 2670)
	a := NewAHCI(BDF(0, 31, 2), disk, NewDirectDMA(mem), q, clk.Now, func() { *irqs++ })
	return a, mem, q, clk, irqs
}

// ahciStart programs GHC.IE, PxCLB, PxIE and PxCMD.ST like a driver.
func ahciStart(a *AHCI, clb PhysAddr) {
	a.MMIOWrite(ahciGHC, 4, ghcIE)
	a.MMIOWrite(ahciPortBase+pxCLB, 4, uint32(clb))
	a.MMIOWrite(ahciPortBase+pxCLBU, 4, 0)
	a.MMIOWrite(ahciPortBase+pxIE, 4, pxisDHRS|pxisTFES)
	a.MMIOWrite(ahciPortBase+pxCMD, 4, pxcmdST|pxcmdFRE)
}

func drain(q *EventQueue, clk *Clock) {
	for q.Len() > 0 {
		clk.AdvanceTo(q.Next)
		q.PopDue(clk.Now())
	}
}

func TestAHCIReadCommand(t *testing.T) {
	a, mem, q, clk, irqs := newTestAHCI(t)
	clb, ctba, buf := PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x8000)
	buildAHCIRead(mem, clb, ctba, buf, 100, 2, false)
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)

	if a.MMIORead(ahciPortBase+pxTFD, 4)&0x80 == 0 {
		t.Error("BSY not set while command in flight")
	}
	drain(q, clk)

	if ci := a.MMIORead(ahciPortBase+pxCI, 4); ci != 0 {
		t.Errorf("CI = %#x after completion", ci)
	}
	if *irqs != 1 {
		t.Errorf("irqs = %d, want 1", *irqs)
	}
	if is := a.MMIORead(ahciPortBase+pxIS, 4); is&pxisDHRS == 0 {
		t.Errorf("PxIS = %#x, want DHRS", is)
	}
	// Data must match the disk's synthetic content.
	want := make([]byte, 2*SectorSize)
	if err := a.Disk().ReadSectors(100, 2, want); err != nil {
		t.Fatal(err)
	}
	got := mem.ReadBytes(buf, 2*SectorSize)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DMA data mismatch at %d", i)
		}
	}
}

func TestAHCIWriteCommand(t *testing.T) {
	a, mem, q, clk, _ := newTestAHCI(t)
	clb, ctba, buf := PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x8000)
	pattern := make([]byte, SectorSize)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	mem.WriteBytes(buf, pattern)
	buildAHCIRead(mem, clb, ctba, buf, 55, 1, true)
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
	drain(q, clk)

	got := make([]byte, SectorSize)
	if err := a.Disk().ReadSectors(55, 1, got); err != nil {
		t.Fatal(err)
	}
	for i := range pattern {
		if got[i] != pattern[i] {
			t.Fatalf("disk content mismatch at %d", i)
		}
	}
}

func TestAHCIIdentify(t *testing.T) {
	a, mem, q, clk, _ := newTestAHCI(t)
	clb, ctba, buf := PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x8000)
	buildAHCIRead(mem, clb, ctba, buf, 0, 1, false)
	mem.Write8(ctba+2, ataIdentify) // patch command byte
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
	drain(q, clk)
	sectors := binary.LittleEndian.Uint64(mem.ReadBytes(buf+100*2, 8))
	if sectors != 1e6 {
		t.Errorf("IDENTIFY LBA48 sectors = %d, want 1e6", sectors)
	}
}

func TestAHCIBadCommandSetsError(t *testing.T) {
	a, mem, q, clk, _ := newTestAHCI(t)
	clb, ctba, buf := PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x8000)
	buildAHCIRead(mem, clb, ctba, buf, 0, 1, false)
	mem.Write8(ctba+2, 0x99) // unsupported ATA command
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
	drain(q, clk)
	if a.MMIORead(ahciPortBase+pxTFD, 4)&0x01 == 0 {
		t.Error("TFD.ERR not set for unsupported command")
	}
	if a.Stats.Errors == 0 {
		t.Error("error not counted")
	}
}

func TestAHCISignatureAndStatus(t *testing.T) {
	a, _, _, _, _ := newTestAHCI(t)
	if sig := a.MMIORead(ahciPortBase+pxSIG, 4); sig != 0x101 {
		t.Errorf("PxSIG = %#x", sig)
	}
	if ssts := a.MMIORead(ahciPortBase+pxSSTS, 4); ssts != 0x113 {
		t.Errorf("PxSSTS = %#x", ssts)
	}
	if pi := a.MMIORead(ahciPI, 4); pi != 1 {
		t.Errorf("PI = %#x", pi)
	}
}

// newTestNIC builds a NIC with an 8-descriptor ring at 0x1000, buffers at
// 0x4000.
func newTestNIC(coalesceHz int) (*NIC, *Memory, *EventQueue, *Clock, *int) {
	mem := NewMemory(1 << 20)
	q := NewEventQueue()
	clk := &Clock{}
	irqs := new(int)
	n := NewNIC(BDF(0, 25, 0), NewDirectDMA(mem), q, clk.Now, 2670, coalesceHz, func() { *irqs++ })
	const slots = 8
	for i := 0; i < slots; i++ {
		mem.Write64(PhysAddr(0x1000+i*16), uint64(0x4000+i*2048))
	}
	n.MMIOWrite(nicRDBAL, 4, 0x1000)
	n.MMIOWrite(nicRDBAH, 4, 0)
	n.MMIOWrite(nicRDLEN, 4, slots*16)
	n.MMIOWrite(nicRDH, 4, 0)
	n.MMIOWrite(nicRDT, 4, slots-1)
	n.MMIOWrite(nicIMS, 4, icrRXT0)
	n.MMIOWrite(nicRCTL, 4, rctlEN)
	return n, mem, q, clk, irqs
}

func TestNICReceiveIntoRing(t *testing.T) {
	n, mem, _, _, irqs := newTestNIC(0)
	pkt := []byte("hello world, this is a packet")
	if !n.Receive(pkt) {
		t.Fatal("receive failed")
	}
	if *irqs != 1 {
		t.Errorf("irqs = %d, want 1", *irqs)
	}
	// Descriptor 0 written back with DD|EOP and length.
	if st := mem.Read8(0x1000 + 12); st != 0x03 {
		t.Errorf("desc status = %#x", st)
	}
	if l := mem.Read16(0x1000 + 8); int(l) != len(pkt) {
		t.Errorf("desc length = %d, want %d", l, len(pkt))
	}
	got := mem.ReadBytes(0x4000, len(pkt))
	for i := range pkt {
		if got[i] != pkt[i] {
			t.Fatal("packet data mismatch")
		}
	}
	if h := n.MMIORead(nicRDH, 4); h != 1 {
		t.Errorf("RDH = %d, want 1", h)
	}
}

func TestNICRingFullDrops(t *testing.T) {
	n, _, _, _, _ := newTestNIC(0)
	// 7 descriptors available (RDT = slots-1); the 8th receive must drop.
	for i := 0; i < 7; i++ {
		if !n.Receive([]byte{1, 2, 3}) {
			t.Fatalf("receive %d failed early", i)
		}
	}
	if n.Receive([]byte{1, 2, 3}) {
		t.Error("receive into full ring succeeded")
	}
	if n.Stats.PacketsDropped != 1 {
		t.Errorf("drops = %d, want 1", n.Stats.PacketsDropped)
	}
}

func TestNICDisabledDrops(t *testing.T) {
	n, _, _, _, _ := newTestNIC(0)
	n.MMIOWrite(nicRCTL, 4, 0)
	if n.Receive([]byte{1}) {
		t.Error("disabled NIC received a packet")
	}
}

func TestNICInterruptCoalescing(t *testing.T) {
	n, _, q, clk, irqs := newTestNIC(20000) // 20k ints/s cap
	// Deliver 10 packets back-to-back: only the first fires immediately,
	// the rest coalesce into one deferred interrupt.
	for i := 0; i < 7; i++ {
		n.Receive([]byte{byte(i)})
		n.MMIOWrite(nicRDT, 4, uint32(i)) // driver returns the slot
	}
	if *irqs != 1 {
		t.Fatalf("immediate irqs = %d, want 1", *irqs)
	}
	if n.Stats.IRQsCoalesced == 0 {
		t.Error("no coalescing recorded")
	}
	drain(q, clk)
	if *irqs != 2 {
		t.Errorf("total irqs = %d, want 2 (1 immediate + 1 merged)", *irqs)
	}
}

func TestNICICRReadToClear(t *testing.T) {
	n, _, _, _, _ := newTestNIC(0)
	n.Receive([]byte{1})
	if icr := n.MMIORead(nicICR, 4); icr&icrRXT0 == 0 {
		t.Error("ICR missing RXT0")
	}
	if icr := n.MMIORead(nicICR, 4); icr != 0 {
		t.Errorf("ICR not cleared by read: %#x", icr)
	}
}

func TestPacketSourceRate(t *testing.T) {
	n, mem, q, clk, _ := newTestNIC(0)
	_ = mem
	// 100 Mbit/s with 1472-byte packets ≈ 8491 pps.
	src := NewPacketSource(n, q, clk.Now, 2670, 1472, 100, 50)
	src.Start()
	// Keep the ring fed while draining events.
	for q.Len() > 0 {
		clk.AdvanceTo(q.Next)
		q.PopDue(clk.Now())
		n.MMIOWrite(nicRDT, 4, (n.MMIORead(nicRDH, 4)+7)%8)
	}
	if src.Sent != 50 {
		t.Errorf("sent = %d, want 50", src.Sent)
	}
	// Elapsed time should match 50 packets at ~8491 pps ≈ 5.9 ms.
	gotMs := float64(clk.Now()) / 2670e3
	if gotMs < 5 || gotMs > 7 {
		t.Errorf("elapsed = %f ms, want ~5.9", gotMs)
	}
}

func TestPCIEnumeration(t *testing.T) {
	b := NewPCIBus()
	b.Add(&PCIFunction{Dev: BDF(0, 31, 2), VendorID: 0x8086, DeviceID: 0x2922, Class: 0x010601, IRQLine: 11})
	// CONFIG_ADDRESS for bus 0, dev 31, fn 2, reg 0.
	addr := uint32(0x80000000) | uint32(BDF(0, 31, 2))<<8
	b.PortWrite(0xcf8, 4, addr)
	if id := b.PortRead(0xcfc, 4); id != 0x29228086 {
		t.Errorf("vendor/device = %#x", id)
	}
	b.PortWrite(0xcf8, 4, addr|0x08)
	if cls := b.PortRead(0xcfc, 4); cls>>8 != 0x010601 {
		t.Errorf("class = %#x", cls)
	}
	// Absent device floats high.
	b.PortWrite(0xcf8, 4, uint32(0x80000000)|uint32(BDF(0, 3, 0))<<8)
	if id := b.PortRead(0xcfc, 4); id != 0xffffffff {
		t.Errorf("absent device = %#x", id)
	}
}

func TestPlatformConstruction(t *testing.T) {
	p := MustNewPlatform(Config{Model: BLM, NumCPUs: 2, RAMSize: 16 << 20})
	if len(p.CPUs) != 2 {
		t.Fatalf("CPUs = %d", len(p.CPUs))
	}
	if p.IOMMU == nil {
		t.Fatal("BLM platform should have an IOMMU")
	}
	// AHCI MMIO is reachable through physical memory.
	if sig := p.Mem.Read32(AHCIMMIOBase + ahciPortBase + pxSIG); sig != 0x101 {
		t.Errorf("AHCI signature via memory = %#x", sig)
	}
	// Devices are enumerable via PCI.
	if len(p.PCI.Functions()) != 2 {
		t.Errorf("PCI functions = %d", len(p.PCI.Functions()))
	}
	// Platform without IOMMU.
	p2 := MustNewPlatform(Config{Model: CNR, DisableIOMMU: true, RAMSize: 16 << 20})
	if p2.IOMMU != nil {
		t.Error("CNR platform should have no IOMMU when disabled")
	}
}

func TestPlatformInterruptHook(t *testing.T) {
	p := MustNewPlatform(Config{Model: BLM, RAMSize: 16 << 20})
	initPIC(p.PIC)
	hooked := 0
	p.InterruptHook = func() { hooked++ }
	p.PIC.RaiseIRQ(IRQAHCI)
	if hooked == 0 {
		t.Error("interrupt hook not invoked")
	}
}
