package vmm

import (
	"fmt"

	"nova/internal/cap"
	"nova/internal/hw"
)

// Direct device assignment (§4, §8.2, §8.3): on platforms with an
// IOMMU, NOVA assigns hardware devices to VMs for secure driver reuse.
// The device's MMIO window is mapped into guest-physical space, its DMA
// is confined to the VM's memory by translating guest-physical bus
// addresses through the VM's memory space, and its interrupt line is
// routed straight to the vCPU (still costing the virtualization exits
// Figure 6/7 measure).

// AssignDevice maps a host device at the guest-physical address equal
// to its host MMIO base, confines its DMA to the VM's RAM, and routes
// its interrupt to the vCPU.
func (m *VMM) AssignDevice(dev hw.DeviceID, mmioBase hw.PhysAddr, mmioSize uint64, irqLine int, guestVector uint8) error {
	k := m.K
	if k.Plat.IOMMU == nil {
		return fmt.Errorf("vmm: platform has no IOMMU; a DMA-capable device cannot be assigned safely")
	}
	pages := int(mmioSize / hw.PageSize)
	basePage := uint32(mmioBase >> 12)
	// Root -> VMM -> VM, at the identity guest-physical address.
	if err := k.DelegateMem(k.Root, basePage, m.PD, basePage, pages, cap.RightRead|cap.RightWrite); err != nil {
		return err
	}
	if err := k.DelegateMem(m.PD, basePage, m.VM, basePage, pages, cap.RightRead|cap.RightWrite); err != nil {
		return err
	}

	// The device's DMA goes through the VM's memory space at every
	// access, so it loses a page the moment the VM does.
	k.Plat.IOMMU.Attach(dev, vmDMA{mem: m.VM.Mem, pages: uint64(m.Cfg.MemPages)})
	k.Plat.IOMMU.AllowVector(dev, guestVector)
	return k.AssignGSIToVM(m.PD, irqLine, m.EC, guestVector)
}

// vmDMA is an assigned device's DMA space: the VM's RAM pages
// [0, pages), translated through the VM's memory space at each access,
// so a revoke or the VM's destruction ends the device's access too
// (§6). A mapped page may be read; a write needs RightWrite.
type vmDMA struct {
	mem   *cap.MemSpace
	pages uint64
}

// Translate implements hw.DMASpace.
func (d vmDMA) Translate(busAddr uint64, perm hw.IOMMUPerm) (uint64, bool) {
	page := busAddr >> 12
	if page >= d.pages {
		return 0, false
	}
	frame, rights, ok := d.mem.Translate(uint32(page))
	if !ok || perm&hw.IOMMUWrite != 0 && rights&cap.RightWrite == 0 {
		return 0, false
	}
	return frame<<12 | busAddr&0xfff, true
}

// AssignHostAHCI passes the platform's SATA controller through to the
// guest (the "Direct" configuration of Figure 6).
func (m *VMM) AssignHostAHCI(guestVector uint8) error {
	if err := m.AssignDevice(hw.AHCIDeviceID, hw.AHCIMMIOBase, hw.AHCIMMIOSize, hw.IRQAHCI, guestVector); err != nil {
		return err
	}
	m.vPCI.Add(&hw.PCIFunction{
		Dev: hw.AHCIDeviceID, VendorID: 0x8086, DeviceID: 0x2922,
		Class: 0x010601, BAR: [6]uint32{5: uint32(hw.AHCIMMIOBase)}, IRQLine: hw.IRQAHCI,
	})
	return nil
}

// AssignHostNIC passes the platform's network controller through to the
// guest (the "Direct" configuration of Figure 7).
func (m *VMM) AssignHostNIC(guestVector uint8) error {
	if err := m.AssignDevice(hw.NICDeviceID, hw.NICMMIOBase, hw.NICMMIOSize, hw.IRQNIC, guestVector); err != nil {
		return err
	}
	m.vPCI.Add(&hw.PCIFunction{
		Dev: hw.NICDeviceID, VendorID: 0x8086, DeviceID: 0x10de,
		Class: 0x020000, BAR: [6]uint32{0: uint32(hw.NICMMIOBase)}, IRQLine: hw.IRQNIC,
	})
	return nil
}
