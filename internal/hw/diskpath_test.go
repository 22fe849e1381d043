package hw

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// synthSectorSerial is the reference for synthSector: one LCG step per
// byte.
func synthSectorSerial(lba uint64, b []byte) {
	x := lba*2654435761 + 0x9e3779b9
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 33)
	}
}

func TestSynthSectorMatchesSerialLCG(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, SectorSize, SectorSize + 1}
	for i := 0; i < 1000; i++ {
		lba := rng.Uint64()
		if i%4 == 0 {
			lba = uint64(i)
		}
		for _, n := range lengths {
			got, want := make([]byte, n), make([]byte, n)
			synthSector(lba, got)
			synthSectorSerial(lba, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("lba %d, %d bytes: lanes %x, serial %x", lba, n, got, want)
			}
		}
	}
}

// TestAHCIResetAbortsInFlightCommand checks GHC.HR with a read in
// flight. The reset returns every data-transfer state machine to idle:
// the aborted read never lands in its buffer and raises no interrupt
// or PxIS bit, and a read re-issued in the same slot completes once, at
// its own time, with its own LBA's data.
func TestAHCIResetAbortsInFlightCommand(t *testing.T) {
	a, mem, q, clk, irqs := newTestAHCI(t)
	clb, ctba := PhysAddr(0x1000), PhysAddr(0x2000)
	oldBuf, newBuf := PhysAddr(0x8000), PhysAddr(0xa000)
	const sectors = 8
	zero := make([]byte, sectors*SectorSize)

	buildAHCIRead(mem, clb, ctba, oldBuf, 100, sectors, false)
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
	a.MMIOWrite(ahciGHC, 4, ghcHR)

	// Re-issue slot 0 before the aborted read would have completed.
	buildAHCIRead(mem, clb, ctba, newBuf, 900, sectors, false)
	ahciStart(a, clb)
	a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
	due := a.Disk().BusyUntil
	for q.Len() > 0 {
		clk.AdvanceTo(q.Next)
		if clk.Now() < due {
			q.PopDue(clk.Now())
			ci, is := a.MMIORead(ahciPortBase+pxCI, 4), a.MMIORead(ahciPortBase+pxIS, 4)
			if ci != 1 || is != 0 || *irqs != 0 {
				t.Fatalf("cycle %d, before the re-issued read is due at %d: CI %#x, PxIS %#x, %d interrupts",
					clk.Now(), due, ci, is, *irqs)
			}
			continue
		}
		q.PopDue(clk.Now())
	}
	if clk.Now() != due {
		t.Errorf("last completion at cycle %d, want %d", clk.Now(), due)
	}
	if ci := a.MMIORead(ahciPortBase+pxCI, 4); ci != 0 {
		t.Errorf("CI = %#x after the re-issued read", ci)
	}
	if *irqs != 1 {
		t.Errorf("%d interrupts, want 1 (the re-issued read's)", *irqs)
	}
	if !bytes.Equal(mem.ReadBytes(oldBuf, len(zero)), zero) {
		t.Error("the aborted read wrote into its buffer after the reset")
	}
	want := make([]byte, sectors*SectorSize)
	if err := a.Disk().ReadSectors(900, sectors, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.ReadBytes(newBuf, len(want)), want) {
		t.Error("the re-issued read's buffer does not hold LBA 900")
	}
	if a.Stats.DMABytes != sectors*SectorSize {
		t.Errorf("DMA bytes = %d, want %d", a.Stats.DMABytes, sectors*SectorSize)
	}
}

// TestAHCIReadAllocatesNothing is the controller's share of the
// zero-allocation disk path: once warm, a 4 KiB read command (issue,
// media completion, PRDT fetch, DMA, interrupt) allocates nothing.
func TestAHCIReadAllocatesNothing(t *testing.T) {
	a, mem, q, clk, _ := newTestAHCI(t)
	clb, ctba, buf := PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x8000)
	buildAHCIRead(mem, clb, ctba, buf, 100, 8, false)
	ahciStart(a, clb)
	read := func() {
		a.MMIOWrite(ahciPortBase+pxCI, 4, 1)
		drain(q, clk)
		a.MMIOWrite(ahciPortBase+pxIS, 4, ^uint32(0))
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("a warm 4 KiB AHCI read allocates %.1f objects, want 0", n)
	}
}
