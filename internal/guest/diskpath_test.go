package guest

import (
	"fmt"
	"testing"

	"nova/internal/hw"
)

// diskLoopKernel issues 4 KiB requests to LBA 4096 forever, one
// outstanding, through the guest AHCI driver; call is ahci_read or
// ahci_write. ProgressAddr counts completed requests.
func diskLoopKernel(call string) KernelOpts {
	return KernelOpts{
		TimerHz:   100,
		ExtraISRs: map[int]string{AHCIVector: AHCIISRBody()},
		Fragments: AHCIDriverFragment(),
		Workload: fmt.Sprintf(`
	call ahci_init
	mov dword [%#[1]x], 0
dl_loop:
	mov eax, 4096
	mov ecx, 8
	mov edi, 0x40000
	call %[2]s
	call ahci_wait
	inc dword [%#[1]x]
	jmp dl_loop
`, ProgressAddr, call),
	}
}

// diskRoundTrips returns a function that runs the guest of a fully
// virtualized disk stack (EPT, virtual AHCI, disk server) through one
// more completed request: the doorbell's MMIO exit, emulation in the
// VMM, the portal call to the disk server, the host AHCI command and
// its DMA, the completion IRQ, the completion records and the
// injection into the guest.
func diskRoundTrips(t *testing.T, call string) func() {
	t.Helper()
	r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
		MustBuild(diskLoopKernel(call)))
	if err != nil {
		t.Fatal(err)
	}
	clk := r.Clock()
	return func() {
		want := r.ReadGuest32(ProgressAddr) + 1
		for r.ReadGuest32(ProgressAddr) != want {
			if err := r.step(clk.Now() + 20_000); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDiskReadRoundTripAllocatesNothing pins the zero-allocation disk
// path: once warm, a 4 KiB read through the virtual AHCI allocates
// nothing anywhere on the host.
func TestDiskReadRoundTripAllocatesNothing(t *testing.T) {
	next := diskRoundTrips(t, "ahci_read")
	for i := 0; i < 20; i++ {
		next()
	}
	if n := testing.AllocsPerRun(200, next); n != 0 {
		t.Errorf("a warm 4 KiB vAHCI read round trip allocates %.2f objects, want 0", n)
	}
}

// TestDiskWriteRoundTripAllocatesOnlyTheStoredCopy is the write
// direction: the one allocation left is the disk's stored copy of the
// written block.
func TestDiskWriteRoundTripAllocatesOnlyTheStoredCopy(t *testing.T) {
	next := diskRoundTrips(t, "ahci_write")
	for i := 0; i < 20; i++ {
		next()
	}
	if n := testing.AllocsPerRun(200, next); n > 1 {
		t.Errorf("a warm 4 KiB vAHCI write round trip allocates %.2f objects, want at most 1", n)
	}
}
