package vmm

import (
	"testing"

	"nova/internal/hw"
	"nova/internal/hypervisor"
)

// TestAssignedDeviceLosesDMAWithTheMemory checks direct assignment
// against §4.2 and §6: an assigned device reaches only what its VM
// holds, at the time of each access. DMA into a page fails once the
// VMM revokes the page from the VM, and into every page once the VMM
// is destroyed; each refused access is recorded as an IOMMU fault.
func TestAssignedDeviceLosesDMAWithTheMemory(t *testing.T) {
	k, m, _ := testStack(t, hypervisor.ModeEPT, false)
	if err := m.AssignHostAHCI(0x2b); err != nil {
		t.Fatal(err)
	}
	u := k.Plat.IOMMU
	buf := []byte{1, 2, 3, 4}
	// dma writes buf at gpa and reads it back: with want both pass,
	// without it both are refused, each with a fault at gpa.
	dma := func(gpa uint64, want bool) {
		t.Helper()
		faults := len(u.Faults)
		werr := u.DMAWrite(hw.AHCIDeviceID, gpa, buf)
		rerr := u.DMARead(hw.AHCIDeviceID, gpa, make([]byte, len(buf)))
		if want {
			if werr != nil || rerr != nil || len(u.Faults) != faults {
				t.Errorf("DMA to %#x: write %v, read %v, %d new faults", gpa, werr, rerr, len(u.Faults)-faults)
			}
			return
		}
		if werr == nil || rerr == nil || len(u.Faults) != faults+2 {
			t.Fatalf("DMA to %#x: write %v, read %v, %d new faults; want both refused", gpa, werr, rerr, len(u.Faults)-faults)
		}
		for _, f := range u.Faults[faults:] {
			if f.Dev != hw.AHCIDeviceID || f.Addr != gpa {
				t.Errorf("fault %+v, want device %v at %#x", f, hw.AHCIDeviceID, gpa)
			}
		}
	}

	dma(0x5000, true)
	dma(0x6000, true)
	if _, err := k.RevokeMem(m.PD, m.Cfg.BasePage+5, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := m.VM.Mem.Translate(5); ok {
		t.Fatal("the VM kept a revoked page")
	}
	dma(0x5000, false)
	dma(0x6000, true)

	if err := k.DestroyPD(k.Root, m.PD); err != nil {
		t.Fatal(err)
	}
	dma(0x6000, false)
	dma(0, false)
}
