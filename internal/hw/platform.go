package hw

import "fmt"

// Conventional platform memory map and interrupt routing.
const (
	AHCIMMIOBase PhysAddr = 0xfeb00000
	AHCIMMIOSize          = 0x1000
	NICMMIOBase  PhysAddr = 0xfea00000
	NICMMIOSize           = 0x20000

	IRQTimer  = 0
	IRQSerial = 4
	IRQNIC    = 10
	IRQAHCI   = 11
)

// Well-known PCI device IDs of the platform devices, packed BDF-style
// (bus<<8 | dev<<3 | fn, see BDF): the AHCI controller at 00:1f.2 and
// the NIC at 00:19.0.
const (
	AHCIDeviceID DeviceID = 0<<8 | 31<<3 | 2
	NICDeviceID  DeviceID = 0<<8 | 25<<3 | 0
)

// CPU is one logical processor of the platform: a cycle clock and a
// hardware TLB. The architectural register state lives in the x86
// package; the hypervisor binds the two.
type CPU struct {
	ID    int
	Clock Clock
	TLB   *TLB
}

// Config selects the platform parameters.
type Config struct {
	Model   CPUModel
	NumCPUs int
	RAMSize uint64

	// Disk parameters; zero values select the paper's drive
	// (250 GB, ~67 MB/s sequential, ~8200 req/s).
	DiskSectors  uint64
	DiskMBs      float64
	DiskIOPS     float64
	NICCoalesce  int  // interrupts/second cap; 0 = paper default 20000
	DisableIOMMU bool // platforms without VT-d (pre-Nehalem)

	// TLB geometry; zero values select 512 small + 32 large entries.
	TLBSmall int
	TLBLarge int
}

// Platform is the simulated machine: the substitute for the paper's
// DX58SO/Core i7 testbed.
type Platform struct {
	Cost  *CostModel
	Mem   *Memory
	Queue *EventQueue
	Ports *IOPorts
	CPUs  []*CPU

	PIC    *I8259
	PIT    *I8254
	Serial *Serial8250
	AHCI   *AHCI
	NIC    *NIC
	IOMMU  *IOMMU // nil if the platform has none
	PCI    *PCIBus

	// InterruptHook, when set, is invoked whenever a device interrupt
	// becomes pending at the PIC. The microhypervisor installs itself
	// here.
	InterruptHook func()
}

// NewPlatform builds the machine.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	if cfg.RAMSize == 0 {
		cfg.RAMSize = 768 << 20
	}
	if cfg.DiskSectors == 0 {
		cfg.DiskSectors = 250e9 / SectorSize
	}
	if cfg.DiskMBs == 0 {
		cfg.DiskMBs = 67
	}
	if cfg.DiskIOPS == 0 {
		cfg.DiskIOPS = 8200
	}
	if cfg.NICCoalesce == 0 {
		cfg.NICCoalesce = 20000
	}
	if cfg.TLBSmall == 0 {
		cfg.TLBSmall = 512
	}
	if cfg.TLBLarge == 0 {
		cfg.TLBLarge = 32
	}

	cost := ModelByName(cfg.Model)
	p := &Platform{
		Cost:  cost,
		Mem:   NewMemory(cfg.RAMSize),
		Queue: NewEventQueue(),
		Ports: NewIOPorts(),
		PCI:   NewPCIBus(),
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		p.CPUs = append(p.CPUs, &CPU{
			ID:  i,
			TLB: NewTLB(cfg.TLBSmall, cfg.TLBLarge, cost.LargePage),
		})
	}
	clock := func() Cycles { return p.CPUs[0].Clock.Now() }

	p.PIC = NewI8259()
	p.PIC.OutputChanged = func() {
		if p.InterruptHook != nil {
			p.InterruptHook()
		}
	}
	p.PIT = NewI8254(p.Queue, clock, cost.FreqMHz, func() { p.PIC.RaiseIRQ(IRQTimer) })
	p.Serial = NewSerial8250(0x3f8)

	disk := NewDisk(cfg.DiskSectors, cfg.DiskMBs, cfg.DiskIOPS, cost.FreqMHz)
	var dma DMABus = NewDirectDMA(p.Mem)
	if !cfg.DisableIOMMU {
		p.IOMMU = NewIOMMU(p.Mem)
		dma = p.IOMMU
	}
	p.AHCI = NewAHCI(AHCIDeviceID, disk, dma, p.Queue, clock, func() { p.PIC.RaiseIRQ(IRQAHCI) })
	p.NIC = NewNIC(NICDeviceID, dma, p.Queue, clock, cost.FreqMHz, cfg.NICCoalesce, func() { p.PIC.RaiseIRQ(IRQNIC) })

	if err := p.Mem.MapMMIO("ahci", AHCIMMIOBase, AHCIMMIOSize, p.AHCI); err != nil {
		return nil, err
	}
	if err := p.Mem.MapMMIO("nic", NICMMIOBase, NICMMIOSize, p.NIC); err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name   string
		lo, hi uint16
		h      IOPortHandler
	}{
		{"pic-master", 0x20, 0x21, p.PIC},
		{"pit", 0x40, 0x43, p.PIT},
		{"port61", 0x61, 0x61, p.PIT},
		{"pic-slave", 0xa0, 0xa1, p.PIC},
		{"serial", 0x3f8, 0x3ff, p.Serial},
		{"elcr", 0x4d0, 0x4d1, p.PIC},
		{"pci", 0xcf8, 0xcff, p.PCI},
	} {
		if err := p.Ports.Map(m.name, m.lo, m.hi, m.h); err != nil {
			return nil, err
		}
	}

	p.PCI.Add(&PCIFunction{
		Dev: AHCIDeviceID, VendorID: 0x8086, DeviceID: 0x2922,
		Class: 0x010601, BAR: [6]uint32{5: uint32(AHCIMMIOBase)}, IRQLine: IRQAHCI,
	})
	p.PCI.Add(&PCIFunction{
		Dev: NICDeviceID, VendorID: 0x8086, DeviceID: 0x10de,
		Class: 0x020000, BAR: [6]uint32{0: uint32(NICMMIOBase)}, IRQLine: IRQNIC,
	})
	return p, nil
}

// MustNewPlatform is NewPlatform for tests and examples with known-good
// configurations.
func MustNewPlatform(cfg Config) *Platform {
	p, err := NewPlatform(cfg)
	if err != nil {
		// invariant: Must-constructor for statically known-good configs
		// in tests and examples; runs at setup time, before any guest
		// code executes. Production callers use NewPlatform.
		panic(fmt.Sprintf("hw: NewPlatform: %v", err))
	}
	return p
}

// BootCPU returns CPU 0.
func (p *Platform) BootCPU() *CPU { return p.CPUs[0] }

// Now returns CPU 0's clock, the platform reference time.
func (p *Platform) Now() Cycles { return p.CPUs[0].Clock.Now() }

// RunEventsUntil fires all pending events up to and including time t.
func (p *Platform) RunEventsUntil(t Cycles) {
	for p.Queue.Next <= t && p.Queue.PopDue(t) {
	}
}
