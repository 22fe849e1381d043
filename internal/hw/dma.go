package hw

import "fmt"

// DeviceID identifies a bus-master device for DMA remapping: the PCI
// bus/device/function triple packed as on real hardware.
type DeviceID uint16

// BDF builds a DeviceID from bus, device and function numbers.
func BDF(bus, dev, fn int) DeviceID {
	return DeviceID(bus<<8 | dev<<3 | fn)
}

func (d DeviceID) String() string {
	return fmt.Sprintf("%02x:%02x.%x", int(d>>8), int(d>>3)&0x1f, int(d)&0x7)
}

// DMABus is the path a bus-master device uses to reach memory. Without an
// IOMMU the platform hands devices a direct bus (full physical access —
// exactly the trust problem §4.2 "Device-Driver Attacks" describes); with
// an IOMMU the accesses are translated and permission-checked per device.
type DMABus interface {
	// DMARead copies len(b) bytes from bus address addr into b on behalf
	// of dev.
	DMARead(dev DeviceID, addr uint64, b []byte) error
	// DMAWrite copies b to bus address addr on behalf of dev.
	DMAWrite(dev DeviceID, addr uint64, b []byte) error
}

// directDMA gives devices unrestricted access to physical memory.
type directDMA struct {
	mem *Memory
}

// NewDirectDMA returns a DMABus without translation or protection.
func NewDirectDMA(mem *Memory) DMABus { return &directDMA{mem: mem} }

func (d *directDMA) DMARead(dev DeviceID, addr uint64, b []byte) error {
	if !d.mem.inRAM(addr, uint64(len(b))) {
		return fmt.Errorf("hw: DMA read of %d bytes at %#x beyond RAM", len(b), addr)
	}
	d.mem.readAt(b, addr)
	return nil
}

func (d *directDMA) DMAWrite(dev DeviceID, addr uint64, b []byte) error {
	if !d.mem.inRAM(addr, uint64(len(b))) {
		return fmt.Errorf("hw: DMA write of %d bytes at %#x beyond RAM", len(b), addr)
	}
	d.mem.writeAt(addr, b)
	return nil
}
