package hw

import "fmt"

// IOMMUPerm is the access permission of an IOMMU mapping.
type IOMMUPerm uint8

// DMA permission bits.
const (
	IOMMURead IOMMUPerm = 1 << iota
	IOMMUWrite
)

type iommuEntry struct {
	hpa  uint64
	perm IOMMUPerm
}

// IOMMUDomain is one DMA protection domain: a page-granular translation
// from bus (guest-physical or driver-virtual) addresses to host-physical
// addresses. In NOVA the hypervisor delegates only the memory regions a
// driver legitimately needs (§4.2: "the hypervisor restricts the usage of
// DMA for drivers to regions of memory that have been explicitly
// delegated").
type IOMMUDomain struct {
	name  string
	pages map[uint64]iommuEntry // key: bus address >> 12
}

// NewIOMMUDomain creates an empty translation domain.
func NewIOMMUDomain(name string) *IOMMUDomain {
	return &IOMMUDomain{name: name, pages: make(map[uint64]iommuEntry)}
}

// Map installs a translation of size bytes (page aligned) from bus
// address to host-physical address with the given permissions.
func (d *IOMMUDomain) Map(busAddr, hpa, size uint64, perm IOMMUPerm) error {
	if busAddr%PageSize != 0 || hpa%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("hw: IOMMU map not page aligned: bus=%#x hpa=%#x size=%#x", busAddr, hpa, size)
	}
	for off := uint64(0); off < size; off += PageSize {
		d.pages[(busAddr+off)>>12] = iommuEntry{hpa: hpa + off, perm: perm}
	}
	return nil
}

// Unmap removes translations covering [busAddr, busAddr+size).
func (d *IOMMUDomain) Unmap(busAddr, size uint64) {
	for off := uint64(0); off < size; off += PageSize {
		delete(d.pages, (busAddr+off)>>12)
	}
}

// Translate resolves one bus address, returning the host-physical
// address if mapped with the needed permission.
func (d *IOMMUDomain) Translate(busAddr uint64, perm IOMMUPerm) (uint64, bool) {
	e, ok := d.pages[busAddr>>12]
	if !ok || e.perm&perm != perm {
		return 0, false
	}
	return e.hpa + busAddr&0xfff, true
}

// DMASpace is what a device attached to the IOMMU may reach: the IOMMU
// asks it to translate every DMA access. An IOMMUDomain is one.
type DMASpace interface {
	// Translate resolves one bus address, returning the host-physical
	// address if it is mapped with the needed permission.
	Translate(busAddr uint64, perm IOMMUPerm) (uint64, bool)
}

// IOMMUFault records one blocked DMA or interrupt-remapping violation.
type IOMMUFault struct {
	Dev   DeviceID
	Addr  uint64
	Write bool
	// Vector is set (and Addr is zero) for interrupt remapping faults.
	Vector uint8
	IsIRQ  bool
}

// IOMMU models VT-d-style DMA remapping plus interrupt remapping. It
// wraps a direct DMA bus: attached devices get their DMA space's
// translations, unattached devices are blocked entirely, and the
// hypervisor's own memory can never be mapped (BlockRange).
type IOMMU struct {
	mem     *Memory
	inner   DMABus
	domains map[DeviceID]DMASpace

	blockedLo, blockedHi uint64 // host-physical range that may never be mapped

	// allowedVectors restricts which interrupt vectors each device may
	// signal (§4.2: the hypervisor "restricts the interrupt vectors
	// available to drivers").
	allowedVectors map[DeviceID]map[uint8]bool

	Faults    []IOMMUFault
	DMAPasses uint64
	DMABlocks uint64
}

// NewIOMMU creates a remapping unit in front of direct physical DMA.
func NewIOMMU(mem *Memory) *IOMMU {
	return &IOMMU{
		mem:            mem,
		inner:          NewDirectDMA(mem),
		domains:        make(map[DeviceID]DMASpace),
		allowedVectors: make(map[DeviceID]map[uint8]bool),
	}
}

// BlockRange declares [lo, hi) host-physical as never-DMA-able (the
// microhypervisor's own image and page tables).
func (u *IOMMU) BlockRange(lo, hi uint64) { u.blockedLo, u.blockedHi = lo, hi }

// Attach binds a device to a DMA space.
func (u *IOMMU) Attach(dev DeviceID, d DMASpace) { u.domains[dev] = d }

// Detach removes a device's domain binding; subsequent DMA is blocked.
func (u *IOMMU) Detach(dev DeviceID) { delete(u.domains, dev) }

// Domain returns the DMA space a device is attached to, if any.
func (u *IOMMU) Domain(dev DeviceID) (DMASpace, bool) {
	d, ok := u.domains[dev]
	return d, ok
}

// AllowVector permits dev to signal the given interrupt vector.
func (u *IOMMU) AllowVector(dev DeviceID, vec uint8) {
	m := u.allowedVectors[dev]
	if m == nil {
		m = make(map[uint8]bool)
		u.allowedVectors[dev] = m
	}
	m[vec] = true
}

// RemapInterrupt validates an interrupt request from dev. Blocked
// vectors are recorded as faults.
func (u *IOMMU) RemapInterrupt(dev DeviceID, vec uint8) bool {
	if m, ok := u.allowedVectors[dev]; ok && m[vec] {
		return true
	}
	u.Faults = append(u.Faults, IOMMUFault{Dev: dev, Vector: vec, IsIRQ: true})
	return false
}

func (u *IOMMU) translate(dev DeviceID, addr uint64, n int, write bool) (uint64, error) {
	d, ok := u.domains[dev]
	if !ok {
		u.DMABlocks++
		u.Faults = append(u.Faults, IOMMUFault{Dev: dev, Addr: addr, Write: write})
		return 0, fmt.Errorf("hw: IOMMU blocked DMA from unattached device %v to %#x", dev, addr)
	}
	perm := IOMMURead
	if write {
		perm = IOMMUWrite
	}
	hpa, ok := d.Translate(addr, perm)
	if !ok {
		u.DMABlocks++
		u.Faults = append(u.Faults, IOMMUFault{Dev: dev, Addr: addr, Write: write})
		return 0, fmt.Errorf("hw: IOMMU fault: device %v, bus addr %#x, write=%v", dev, addr, write)
	}
	if hpa < u.blockedHi && hpa+uint64(n) > u.blockedLo {
		u.DMABlocks++
		u.Faults = append(u.Faults, IOMMUFault{Dev: dev, Addr: addr, Write: write})
		return 0, fmt.Errorf("hw: IOMMU blocked DMA into protected range from %v", dev)
	}
	return hpa, nil
}

// DMARead implements DMABus with per-page translation.
func (u *IOMMU) DMARead(dev DeviceID, addr uint64, b []byte) error {
	return u.dma(dev, addr, b, false)
}

// DMAWrite implements DMABus with per-page translation.
func (u *IOMMU) DMAWrite(dev DeviceID, addr uint64, b []byte) error {
	return u.dma(dev, addr, b, true)
}

func (u *IOMMU) dma(dev DeviceID, addr uint64, b []byte, write bool) error {
	for len(b) > 0 {
		n := PageSize - int(addr&0xfff)
		if n > len(b) {
			n = len(b)
		}
		hpa, err := u.translate(dev, addr, n, write)
		if err != nil {
			return err
		}
		if write {
			if err := u.inner.DMAWrite(dev, hpa, b[:n]); err != nil {
				return err
			}
		} else {
			if err := u.inner.DMARead(dev, hpa, b[:n]); err != nil {
				return err
			}
		}
		u.DMAPasses++
		addr += uint64(n)
		b = b[n:]
	}
	return nil
}
