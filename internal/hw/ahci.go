package hw

import (
	"encoding/binary"
	"fmt"
)

// AHCI register offsets (generic host control).
const (
	ahciCAP = 0x00
	ahciGHC = 0x04
	ahciIS  = 0x08
	ahciPI  = 0x0c
	ahciVS  = 0x10

	ahciPortBase = 0x100
	ahciPortSize = 0x80

	// Per-port register offsets.
	pxCLB  = 0x00
	pxCLBU = 0x04
	pxFB   = 0x08
	pxFBU  = 0x0c
	pxIS   = 0x10
	pxIE   = 0x14
	pxCMD  = 0x18
	pxTFD  = 0x20
	pxSIG  = 0x24
	pxSSTS = 0x28
	pxSCTL = 0x2c
	pxSERR = 0x30
	pxSACT = 0x34
	pxCI   = 0x38
)

// GHC bits.
const (
	ghcHR = 1 << 0
	ghcIE = 1 << 1
	ghcAE = 1 << 31
)

// PxCMD bits.
const (
	pxcmdST  = 1 << 0
	pxcmdFRE = 1 << 4
	pxcmdFR  = 1 << 14
	pxcmdCR  = 1 << 15
)

// PxIS bits.
const (
	pxisDHRS = 1 << 0 // device-to-host register FIS received
	pxisTFES = 1 << 30
)

// ATA commands handled by the model.
const (
	ataReadDMAExt  = 0x25
	ataWriteDMAExt = 0x35
	ataFlushCache  = 0xe7
	ataIdentify    = 0xec
)

// AHCIStats counts controller activity for the Figure 6 analysis.
type AHCIStats struct {
	MMIOReads  uint64
	MMIOWrites uint64
	Commands   uint64
	IRQs       uint64
	DMABytes   uint64
	Errors     uint64
}

// AHCI models a single-port AHCI host bus adapter attached to a Disk.
// The register interface follows the AHCI programming model closely
// enough that the same driver code programs both this physical instance
// and the VMM's virtual instance: command list and command tables are
// fetched by DMA, PRDT entries scatter/gather the data, and completion
// raises the port interrupt.
type AHCI struct {
	Dev   DeviceID
	disk  *Disk
	dma   DMABus
	queue *EventQueue
	clock func() Cycles
	raise func() // interrupt line to the platform PIC

	// Generic host control.
	ghc uint32
	is  uint32

	// Port 0.
	clb  uint64
	fb   uint64
	pis  uint32
	pie  uint32
	pcmd uint32
	tfd  uint32
	serr uint32
	ci   uint32

	inflight uint32 // slots issued to the media but not yet complete

	// slots holds each command slot's in-flight command and completion
	// event. scratch is where command headers, CFISes and PRDs land,
	// prds the decoded PRDT of the command being transferred, and buf
	// the data buffer, grown to the largest command seen (at most
	// 65536 sectors, 32 MiB). The controller owns them all, so a
	// command in steady state allocates nothing.
	slots   [32]ahciSlot
	scratch [32]byte
	prds    []prd
	buf     []byte

	Stats AHCIStats
}

// ahciSlot is one command slot's in-flight state: the command fetched
// at issue and the event that completes it when the media is done.
type ahciSlot struct {
	n     int
	h     cmdHeader
	cmd   uint8
	lba   uint64
	count int
	done  Event
}

// NewAHCI creates the controller. raise is invoked for each interrupt
// assertion.
func NewAHCI(dev DeviceID, disk *Disk, dma DMABus, queue *EventQueue, clock func() Cycles, raise func()) *AHCI {
	a := &AHCI{
		Dev: dev, disk: disk, dma: dma, queue: queue, clock: clock, raise: raise,
		tfd: 0x50, // DRDY | seek complete
	}
	for i := range a.slots {
		s := &a.slots[i]
		s.n = i
		s.done.Do = func() { a.complete(s) }
	}
	return a
}

// SetDMA replaces the DMA path (e.g., after the hypervisor interposes an
// IOMMU domain).
func (a *AHCI) SetDMA(dma DMABus) { a.dma = dma }

// Disk returns the attached media.
func (a *AHCI) Disk() *Disk { return a.disk }

// MMIORead implements MMIOHandler.
func (a *AHCI) MMIORead(off uint32, size int) uint32 {
	a.Stats.MMIOReads++
	switch off {
	case ahciCAP:
		return 0x40141f00 | 0 // 64-bit addressing, 32 slots, 1 port
	case ahciGHC:
		return a.ghc | ghcAE
	case ahciIS:
		return a.is
	case ahciPI:
		return 0x1
	case ahciVS:
		return 0x00010300
	}
	if off >= ahciPortBase && off < ahciPortBase+ahciPortSize {
		switch off - ahciPortBase {
		case pxCLB:
			return uint32(a.clb)
		case pxCLBU:
			return uint32(a.clb >> 32)
		case pxFB:
			return uint32(a.fb)
		case pxFBU:
			return uint32(a.fb >> 32)
		case pxIS:
			return a.pis
		case pxIE:
			return a.pie
		case pxCMD:
			cmd := a.pcmd
			if a.pcmd&pxcmdST != 0 {
				cmd |= pxcmdCR
			}
			if a.pcmd&pxcmdFRE != 0 {
				cmd |= pxcmdFR
			}
			return cmd
		case pxTFD:
			return a.tfd
		case pxSIG:
			return 0x00000101 // SATA disk signature
		case pxSSTS:
			return 0x113 // device present, Gen1 speed, active
		case pxSERR:
			return a.serr
		case pxSACT:
			return 0
		case pxCI:
			return a.ci
		}
	}
	return 0
}

// MMIOWrite implements MMIOHandler.
func (a *AHCI) MMIOWrite(off uint32, size int, val uint32) {
	a.Stats.MMIOWrites++
	switch off {
	case ahciGHC:
		if val&ghcHR != 0 {
			a.reset()
			return
		}
		a.ghc = val &^ ghcHR
		return
	case ahciIS:
		a.is &^= val // write-1-to-clear
		return
	}
	if off >= ahciPortBase && off < ahciPortBase+ahciPortSize {
		switch off - ahciPortBase {
		case pxCLB:
			a.clb = a.clb&^0xffffffff | uint64(val)
		case pxCLBU:
			a.clb = a.clb&0xffffffff | uint64(val)<<32
		case pxFB:
			a.fb = a.fb&^0xffffffff | uint64(val)
		case pxFBU:
			a.fb = a.fb&0xffffffff | uint64(val)<<32
		case pxIS:
			a.pis &^= val // write-1-to-clear
		case pxIE:
			a.pie = val
		case pxCMD:
			a.pcmd = val & (pxcmdST | pxcmdFRE)
		case pxSERR:
			a.serr &^= val
		case pxCI:
			newSlots := val &^ a.ci &^ a.inflight
			a.ci |= val
			if a.pcmd&pxcmdST != 0 {
				for slot := 0; slot < 32; slot++ {
					if newSlots&(1<<uint(slot)) != 0 {
						a.issue(slot)
					}
				}
			}
		}
	}
}

// reset is GHC.HR: every register returns to its reset value and every
// data-transfer state machine to idle, so commands in flight are
// aborted: their completions never fire.
func (a *AHCI) reset() {
	for i := range a.slots {
		a.queue.Cancel(&a.slots[i].done)
	}
	a.ghc, a.is = 0, 0
	a.pis, a.pie, a.pcmd, a.ci, a.serr, a.inflight = 0, 0, 0, 0, 0, 0
	a.tfd = 0x50
}

// cmdHeader is a decoded AHCI command-list entry.
type cmdHeader struct {
	cfl   int
	write bool
	prdtl int
	ctba  uint64
}

func (a *AHCI) readHeader(slot int) (cmdHeader, error) {
	raw := a.scratch[:32]
	if err := a.dma.DMARead(a.Dev, a.clb+uint64(slot)*32, raw); err != nil {
		return cmdHeader{}, err
	}
	dw0 := binary.LittleEndian.Uint32(raw[0:])
	return cmdHeader{
		cfl:   int(dw0 & 0x1f),
		write: dw0&(1<<6) != 0,
		prdtl: int(dw0 >> 16),
		ctba:  uint64(binary.LittleEndian.Uint32(raw[8:])) | uint64(binary.LittleEndian.Uint32(raw[12:]))<<32,
	}, nil
}

// prd is a decoded physical region descriptor.
type prd struct {
	dba   uint64
	bytes int
}

// readPRDT fetches the whole PRDT of h into a.prds, which stays valid
// until the next call.
func (a *AHCI) readPRDT(h cmdHeader) ([]prd, error) {
	out := a.prds[:0]
	raw := a.scratch[:16]
	for i := 0; i < h.prdtl; i++ {
		if err := a.dma.DMARead(a.Dev, h.ctba+0x80+uint64(i)*16, raw); err != nil {
			return nil, err
		}
		dba := uint64(binary.LittleEndian.Uint32(raw[0:])) | uint64(binary.LittleEndian.Uint32(raw[4:]))<<32
		dbc := binary.LittleEndian.Uint32(raw[12:])&0x3fffff + 1 // zero-based count
		out = append(out, prd{dba: dba, bytes: int(dbc)})
	}
	a.prds = out
	return out, nil
}

// issue fetches the command in slot and schedules its completion.
func (a *AHCI) issue(slot int) {
	a.Stats.Commands++
	h, err := a.readHeader(slot)
	if err != nil {
		a.fail(slot, err)
		return
	}
	cfis := a.scratch[:20]
	if err := a.dma.DMARead(a.Dev, h.ctba, cfis); err != nil {
		a.fail(slot, err)
		return
	}
	if cfis[0] != 0x27 { // H2D register FIS
		a.fail(slot, fmt.Errorf("hw: AHCI slot %d: bad FIS type %#x", slot, cfis[0]))
		return
	}
	cmd := cfis[2]
	lba := uint64(cfis[4]) | uint64(cfis[5])<<8 | uint64(cfis[6])<<16 |
		uint64(cfis[8])<<24 | uint64(cfis[9])<<32 | uint64(cfis[10])<<40
	count := int(uint16(cfis[12]) | uint16(cfis[13])<<8)
	if count == 0 {
		count = 65536
	}

	bit := uint32(1) << uint(slot)
	a.inflight |= bit
	a.tfd |= 0x80 // BSY

	var bytes int
	switch cmd {
	case ataReadDMAExt, ataWriteDMAExt:
		bytes = count * SectorSize
	case ataIdentify:
		bytes = SectorSize
	case ataFlushCache:
		bytes = 0
	default:
		a.fail(slot, fmt.Errorf("hw: AHCI slot %d: unsupported ATA command %#x", slot, cmd))
		return
	}

	s := &a.slots[slot]
	s.h, s.cmd, s.lba, s.count = h, cmd, lba, count
	a.queue.Schedule(&s.done, a.disk.Schedule(a.clock(), bytes))
}

// data returns the controller's data buffer resized to n bytes.
func (a *AHCI) data(n int) []byte {
	if cap(a.buf) < n {
		a.buf = make([]byte, n)
	}
	return a.buf[:n]
}

func (a *AHCI) complete(s *ahciSlot) {
	bit := uint32(1) << uint(s.n)
	var err error
	switch s.cmd {
	case ataReadDMAExt:
		buf := a.data(s.count * SectorSize)
		if err = a.disk.ReadSectors(s.lba, s.count, buf); err == nil {
			err = a.scatter(s.h, buf)
		}
	case ataWriteDMAExt:
		buf := a.data(s.count * SectorSize)
		if err = a.gather(s.h, buf); err == nil {
			err = a.disk.WriteSectors(s.lba, s.count, buf)
		}
	case ataIdentify:
		err = a.scatter(s.h, a.identify())
	case ataFlushCache:
		// No data.
	}
	a.ci &^= bit
	a.inflight &^= bit
	if a.inflight == 0 {
		a.tfd &^= 0x80 // clear BSY
	}
	if err != nil {
		a.Stats.Errors++
		a.tfd |= 0x01 // ERR
		a.pis |= pxisTFES
	} else {
		a.pis |= pxisDHRS
	}
	a.maybeInterrupt()
}

func (a *AHCI) fail(slot int, err error) {
	a.Stats.Errors++
	bit := uint32(1) << uint(slot)
	a.ci &^= bit
	a.inflight &^= bit
	a.tfd |= 0x01
	a.pis |= pxisTFES
	a.maybeInterrupt()
}

func (a *AHCI) maybeInterrupt() {
	if a.pis&a.pie != 0 {
		a.is |= 1 // port 0
		if a.ghc&ghcIE != 0 {
			a.Stats.IRQs++
			a.raise()
		}
	}
}

// scatter writes buf out through the PRDT.
func (a *AHCI) scatter(h cmdHeader, buf []byte) error {
	prds, err := a.readPRDT(h)
	if err != nil {
		return err
	}
	for _, p := range prds {
		if len(buf) == 0 {
			break
		}
		n := p.bytes
		if n > len(buf) {
			n = len(buf)
		}
		if err := a.dma.DMAWrite(a.Dev, p.dba, buf[:n]); err != nil {
			return err
		}
		a.Stats.DMABytes += uint64(n)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return fmt.Errorf("hw: AHCI PRDT too small: %d bytes left", len(buf))
	}
	return nil
}

// gather reads buf in through the PRDT.
func (a *AHCI) gather(h cmdHeader, buf []byte) error {
	prds, err := a.readPRDT(h)
	if err != nil {
		return err
	}
	for _, p := range prds {
		if len(buf) == 0 {
			break
		}
		n := p.bytes
		if n > len(buf) {
			n = len(buf)
		}
		if err := a.dma.DMARead(a.Dev, p.dba, buf[:n]); err != nil {
			return err
		}
		a.Stats.DMABytes += uint64(n)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return fmt.Errorf("hw: AHCI PRDT too small: %d bytes left", len(buf))
	}
	return nil
}

// identify builds ATA IDENTIFY DEVICE data for the modeled drive.
func (a *AHCI) identify() []byte {
	id := make([]byte, SectorSize)
	// Word 0: ATA device. Words 60-61: LBA28 sectors. 100-103: LBA48.
	binary.LittleEndian.PutUint16(id[0:], 0x0040)
	sectors28 := a.disk.Sectors
	if sectors28 > 0x0fffffff {
		sectors28 = 0x0fffffff
	}
	binary.LittleEndian.PutUint32(id[60*2:], uint32(sectors28))
	binary.LittleEndian.PutUint64(id[100*2:], a.disk.Sectors)
	copyATAString(id[27*2:], "NOVA SIM HITACHI 250GB", 40)
	copyATAString(id[10*2:], "NV0001", 20)
	return id
}

// copyATAString stores s in the byte-swapped format ATA strings use.
func copyATAString(dst []byte, s string, n int) {
	for i := 0; i < n; i++ {
		c := byte(' ')
		if i < len(s) {
			c = s[i]
		}
		dst[i^1] = c
	}
}
