package hw

import "slices"

// PCIFunction describes one discoverable PCI function for config-space
// enumeration.
type PCIFunction struct {
	Dev      DeviceID
	VendorID uint16
	DeviceID uint16
	Class    uint32 // class<<16 | subclass<<8 | progif
	BAR      [6]uint32
	IRQLine  uint8
}

// PCIBus implements the legacy 0xCF8/0xCFC configuration mechanism over a
// static set of functions. It exists so drivers discover devices the same
// way they would on hardware; it does not model bridges or reassignment.
type PCIBus struct {
	fns  []*PCIFunction // in registration order
	addr uint32         // last value written to CONFIG_ADDRESS
}

// NewPCIBus returns an empty bus.
func NewPCIBus() *PCIBus { return &PCIBus{} }

// Add registers a function, replacing one registered at the same
// device address.
func (b *PCIBus) Add(f *PCIFunction) {
	if i := b.find(f.Dev); i >= 0 {
		b.fns[i] = f
		return
	}
	b.fns = append(b.fns, f)
}

// find returns the index of the function at dev, or -1.
func (b *PCIBus) find(dev DeviceID) int {
	for i, f := range b.fns {
		if f.Dev == dev {
			return i
		}
	}
	return -1
}

// Functions returns all registered functions, in registration order.
func (b *PCIBus) Functions() []*PCIFunction {
	return slices.Clone(b.fns)
}

// PortRead implements IOPortHandler for 0xCF8-0xCFF.
func (b *PCIBus) PortRead(port uint16, size int) uint32 {
	switch {
	case port == 0xcf8:
		return b.addr
	case port >= 0xcfc && port <= 0xcff:
		if b.addr&0x80000000 == 0 {
			return 0xffffffff
		}
		i := b.find(DeviceID(b.addr >> 8 & 0xffff))
		if i < 0 {
			return 0xffffffff
		}
		v := b.configRead(b.fns[i], b.addr&0xfc)
		shift := (uint32(port) & 3) * 8
		return v >> shift
	}
	return 0xffffffff
}

// PortWrite implements IOPortHandler.
func (b *PCIBus) PortWrite(port uint16, size int, val uint32) {
	if port == 0xcf8 {
		b.addr = val
	}
	// Config writes (BAR sizing etc.) are not needed by our drivers.
}

func (b *PCIBus) configRead(f *PCIFunction, reg uint32) uint32 {
	switch reg {
	case 0x00:
		return uint32(f.DeviceID)<<16 | uint32(f.VendorID)
	case 0x04:
		return 0x02100006 // status: caps; command: memory + bus master
	case 0x08:
		return f.Class<<8 | 0x01 // revision 1
	case 0x0c:
		return 0 // single-function, header type 0
	case 0x10, 0x14, 0x18, 0x1c, 0x20, 0x24:
		return f.BAR[(reg-0x10)/4]
	case 0x3c:
		return uint32(f.IRQLine)<<0 | 1<<8 // interrupt line, pin INTA
	}
	return 0
}
