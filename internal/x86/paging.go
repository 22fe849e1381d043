package x86

// Page table entry bits (32-bit, 2-level).
const (
	PTEPresent  uint32 = 1 << 0
	PTEWrite    uint32 = 1 << 1
	PTEUser     uint32 = 1 << 2
	PTEAccessed uint32 = 1 << 5
	PTEDirty    uint32 = 1 << 6
	PTELarge    uint32 = 1 << 7 // PS bit in the PDE
	PTEGlobal   uint32 = 1 << 8
)

// pageSize is the small page, the unit of translation. No Env access
// crosses one (see Interp.readLinear).
const pageSize = 4096

// PhysMem gives the walker access to physical memory. The boolean result
// is false when the address is outside RAM (a malformed page table).
type PhysMem interface {
	ReadPhys32(pa uint64) (uint32, bool)
	WritePhys32(pa uint64, v uint32) bool
}

// Walk is the result of a successful page-table walk.
type Walk struct {
	PA       uint64 // translated physical address
	Large    bool   // mapped by a 4M PDE
	Writable bool
	User     bool
	Global   bool
	Steps    int // page-table levels touched (for cycle accounting)
}

// WalkGuest walks a 32-bit two-level page table rooted at cr3 and
// translates va. write requests write access; wp applies CR0.WP
// semantics for supervisor accesses. setAD updates accessed/dirty bits
// like the hardware walker. On failure it returns a #PF exception with
// hardware-formatted error code (supervisor access assumed: our guests
// run at CPL0).
func WalkGuest(mem PhysMem, cr3, cr4, va uint32, write, wp, setAD bool) (Walk, *Exception) {
	w := Walk{}
	pdeAddr := uint64(cr3&^0xfff) + uint64(va>>22)*4
	pde, ok := mem.ReadPhys32(pdeAddr)
	w.Steps++
	if !ok || pde&PTEPresent == 0 {
		return w, PageFault(va, false, write, false)
	}
	if pde&PTELarge != 0 && cr4&CR4PSE != 0 {
		// 4M page.
		if write && pde&PTEWrite == 0 && wp {
			return w, PageFault(va, true, write, false)
		}
		if setAD {
			upd := pde | PTEAccessed
			if write {
				upd |= PTEDirty
			}
			if upd != pde {
				mem.WritePhys32(pdeAddr, upd)
			}
		}
		w.PA = uint64(pde&0xffc00000) + uint64(va&0x3fffff)
		w.Large = true
		w.Writable = pde&PTEWrite != 0
		w.User = pde&PTEUser != 0
		w.Global = pde&PTEGlobal != 0
		return w, nil
	}
	pteAddr := uint64(pde&^0xfff) + uint64(va>>12&0x3ff)*4
	pte, ok := mem.ReadPhys32(pteAddr)
	w.Steps++
	if !ok || pte&PTEPresent == 0 {
		return w, PageFault(va, false, write, false)
	}
	if write && (pde&PTEWrite == 0 || pte&PTEWrite == 0) && wp {
		return w, PageFault(va, true, write, false)
	}
	if setAD {
		if pde&PTEAccessed == 0 {
			mem.WritePhys32(pdeAddr, pde|PTEAccessed)
		}
		upd := pte | PTEAccessed
		if write {
			upd |= PTEDirty
		}
		if upd != pte {
			mem.WritePhys32(pteAddr, upd)
		}
	}
	w.PA = uint64(pte&^0xfff) + uint64(va&0xfff)
	w.Writable = pde&PTEWrite != 0 && pte&PTEWrite != 0
	w.User = pde&PTEUser != 0 && pte&PTEUser != 0
	w.Global = pte&PTEGlobal != 0
	return w, nil
}
