package vmm

import (
	"encoding/binary"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/services"
	"nova/internal/span"
	"nova/internal/trace"
)

// VAHCIBase is the guest-physical base of the virtual AHCI controller's
// register window (matching the host convention, so the same guest
// driver binary works natively, with passthrough, and fully
// virtualized — exactly the comparison of Figure 6).
const VAHCIBase = uint64(hw.AHCIMMIOBase)

// VAHCIIRQ is the virtual interrupt line of the controller.
const VAHCIIRQ = 11

// maxPRDEntries mirrors the disk server's scatter-list bound: the
// virtual controller refuses guest command headers advertising more
// PRD entries than a forwarded request may carry.
const maxPRDEntries = services.MaxDMASegs

// VAHCI is the virtual AHCI controller: a software state machine
// mimicking the host bus adapter (§7.2). Commands the guest rings are
// decoded from guest memory and forwarded to the disk server over the
// per-client portal; the host driver then DMAs directly into guest
// buffers, eliminating data copies (§8.2).
type VAHCI struct {
	m *VMM

	ghc, is                       uint32
	clb                           uint64
	pis, pie, pcmd, tfd, serr, ci uint32
	inflight                      uint32

	// spans correlates an in-flight forwarded command slot with its
	// request span: assigned at doorbell decode, consumed when the
	// completion record comes back (the cookie round-trips the slot).
	// Zero entries mean "no span" and record nothing.
	spans [32]span.ID

	// cfis, bufs and msg are issue's storage for the command FIS it
	// reads from the guest, the scatter list it forwards and the portal
	// message it sends, reused by every command.
	cfis [20]byte
	bufs []services.DMASeg
	msg  hypervisor.UTCB

	Commands uint64
	IRQs     uint64
}

// NewVAHCI creates the device model.
func NewVAHCI(m *VMM) *VAHCI {
	return &VAHCI{m: m, tfd: 0x50}
}

// MMIORead implements the register file (registers without read side
// effects could be mapped read-only into the guest; we intercept them
// all for the fully-virtualized configuration).
func (a *VAHCI) MMIORead(off uint32, size int) uint32 {
	switch off {
	case 0x00: // CAP
		return 0x40141f00
	case 0x04: // GHC
		return a.ghc | 1<<31
	case 0x08: // IS
		return a.is
	case 0x0c: // PI
		return 1
	case 0x10: // VS
		return 0x00010300
	}
	if off >= 0x100 && off < 0x180 {
		switch off - 0x100 {
		case 0x00:
			return uint32(a.clb)
		case 0x04:
			return uint32(a.clb >> 32)
		case 0x10:
			return a.pis
		case 0x14:
			return a.pie
		case 0x18:
			cmd := a.pcmd
			if a.pcmd&1 != 0 {
				cmd |= 1 << 15
			}
			return cmd
		case 0x20:
			return a.tfd
		case 0x24:
			return 0x101
		case 0x28:
			return 0x113
		case 0x30:
			return a.serr
		case 0x38:
			return a.ci
		}
	}
	return 0
}

// MMIOWrite updates the state machine; writes to PxCI issue commands.
func (a *VAHCI) MMIOWrite(off uint32, size int, val uint32) {
	switch off {
	case 0x04:
		a.ghc = val &^ 1
		return
	case 0x08:
		a.is &^= val
		return
	}
	if off >= 0x100 && off < 0x180 {
		switch off - 0x100 {
		case 0x00:
			a.clb = a.clb&^0xffffffff | uint64(val)
		case 0x04:
			a.clb = a.clb&0xffffffff | uint64(val)<<32
		case 0x10:
			a.pis &^= val
		case 0x14:
			a.pie = val
		case 0x18:
			a.pcmd = val & (1 | 1<<4)
		case 0x30:
			a.serr &^= val
		case 0x38:
			newSlots := val &^ a.ci &^ a.inflight
			a.ci |= val
			if a.pcmd&1 != 0 {
				for slot := 0; slot < 32; slot++ {
					if newSlots&(1<<uint(slot)) != 0 {
						a.issue(slot)
					}
				}
			}
		}
	}
}

// issue decodes the guest's command (header, CFIS, PRDT all live in
// guest memory) and forwards it to the disk server (Figure 4, step 2).
func (a *VAHCI) issue(slot int) {
	a.Commands++
	m := a.m
	hdrGPA := a.clb + uint64(slot)*32
	hdr := m.guestRead32(hdrGPA)
	prdtl := int(hdr >> 16)
	if prdtl > maxPRDEntries {
		// The PRD count is guest-written; refuse oversized tables
		// instead of walking wherever the guest points.
		a.fail(slot)
		return
	}
	ctba := uint64(m.guestRead32(hdrGPA+8)) | uint64(m.guestRead32(hdrGPA+12))<<32

	cfis := m.GuestRead(ctba, a.cfis[:])
	if cfis == nil || cfis[0] != 0x27 {
		a.fail(slot)
		return
	}
	cmd := cfis[2]
	lba := uint64(cfis[4]) | uint64(cfis[5])<<8 | uint64(cfis[6])<<16 |
		uint64(cfis[8])<<24 | uint64(cfis[9])<<32 | uint64(cfis[10])<<40
	count := int(binary.LittleEndian.Uint16(cfis[12:]))
	if count == 0 {
		count = 65536
	}

	// Gather the PRDT and translate guest-physical buffer addresses to
	// host-physical for the driver. Only these buffer ranges are
	// exposed to the device (§4.2).
	bufs := a.bufs[:0]
	for i := 0; i < prdtl; i++ {
		base := ctba + 0x80 + uint64(i)*16
		dba := uint64(m.guestRead32(base)) | uint64(m.guestRead32(base+4))<<32
		dbc := int(m.guestRead32(base+12)&0x3fffff) + 1
		if !m.inGuest(dba, uint64(dbc)) {
			a.fail(slot)
			return
		}
		bufs = append(bufs, services.DMASeg{HPA: m.base + dba, Len: dbc})
	}
	a.bufs = bufs

	switch cmd {
	case 0xec: // IDENTIFY: served by the device model itself
		id := a.identify()
		off := 0
		for _, b := range bufs {
			n := b.Len
			if n > len(id)-off {
				n = len(id) - off
			}
			if n <= 0 {
				break
			}
			m.K.Plat.Mem.WriteBytes(hw.PhysAddr(b.HPA), id[off:off+n])
			off += n
		}
		a.completeLocal(slot)
		return
	case 0xe7: // FLUSH
		a.completeLocal(slot)
		return
	case 0x25, 0x35: // READ/WRITE DMA EXT
		op := services.DiskOpRead
		if cmd == 0x35 {
			op = services.DiskOpWrite
		}
		a.inflight |= 1 << uint(slot)
		a.tfd |= 0x80
		m.record(trace.KindDiskRequest, uint64(op), lba, uint64(count), uint64(slot))
		// The doorbell decode is the request origin: the span opens in
		// the emulation segment, rides the portal call to the disk
		// server, and closes when the completion interrupt is armed for
		// injection (Figure 4 end to end).
		cpu := m.K.CurCPU()
		sp := m.K.Spans.Open(cpu, m.K.Now(), span.ClassDisk, span.SegEmul, uint64(slot))
		m.K.Spans.Annotate(cpu, m.K.Now(), sp, span.AnnotLBA, lba)
		m.K.Spans.Annotate(cpu, m.K.Now(), sp, span.AnnotSectors, uint64(count))
		a.spans[slot] = sp
		req := services.DiskRequest{Op: op, LBA: lba, Count: count, Bufs: bufs, Cookie: uint64(slot)}
		msg := &a.msg
		msg.Words = services.AppendRequest(msg.Words[:0], &req)
		m.K.Spans.Begin(cpu, sp, span.SegEmul)
		err := m.K.Call(m.PD, m.diskPortalSel, msg)
		m.K.Spans.End(cpu)
		if err != nil || len(msg.Words) == 0 || msg.Words[0] == 0 {
			a.inflight &^= 1 << uint(slot)
			a.fail(slot)
			return
		}
		// Accepted: the request is in flight at the host device until
		// its completion record arrives.
		m.K.Spans.Transition(cpu, m.K.Now(), sp, span.SegQueue)
		return
	}
	a.fail(slot)
}

// completeLocal finishes a command served without the disk server.
func (a *VAHCI) completeLocal(slot int) {
	a.ci &^= 1 << uint(slot)
	a.pis |= 1
	a.interrupt()
}

// Complete finishes a forwarded command when its completion record
// arrives (Figure 4, steps 7-8).
//
// nocharge: the completion EC (handleDiskCompletions) charges one
// DeviceModelUpdate per doorbell batch before draining records.
func (a *VAHCI) Complete(slot int, ok bool) {
	if slot < 0 || slot >= 32 {
		// The cookie round-trips through the disk server; treat an
		// out-of-range slot as a protocol violation, not an index.
		return
	}
	m := a.m
	sp := a.spans[slot]
	a.spans[slot] = 0
	if sp != 0 {
		m.K.Spans.Transition(m.K.CurCPU(), m.K.Now(), sp, span.SegEmul)
	}
	bit := uint32(1) << uint(slot)
	a.ci &^= bit
	a.inflight &^= bit
	if a.inflight == 0 {
		a.tfd &^= 0x80
	}
	if ok {
		a.pis |= 1
	} else {
		a.tfd |= 1
		a.pis |= 1 << 30
	}
	raised := a.interrupt()
	if sp == 0 {
		return
	}
	cpu := m.K.CurCPU()
	switch {
	case raised:
		// The completion interrupt is pending at the virtual PIC; the
		// span closes when the VMM arms its injection into the guest
		// (armInjection drains spanInject for the acked line).
		m.K.Spans.Transition(cpu, m.K.Now(), sp, span.SegGuest)
		m.spanInject[VAHCIIRQ] = append(m.spanInject[VAHCIIRQ], sp)
	case !ok:
		m.K.Spans.Close(cpu, m.K.Now(), sp, span.StatusError)
	default:
		// Completed, but the guest has the interrupt masked at the
		// device or PIC level: the span ends at device-model completion.
		m.K.Spans.Close(cpu, m.K.Now(), sp, span.StatusNoIRQ)
	}
}

func (a *VAHCI) fail(slot int) {
	if sp := a.spans[slot]; sp != 0 {
		a.spans[slot] = 0
		a.m.K.Spans.Close(a.m.K.CurCPU(), a.m.K.Now(), sp, span.StatusError)
	}
	a.ci &^= 1 << uint(slot)
	a.tfd |= 1
	a.pis |= 1 << 30
	a.interrupt()
}

// interrupt reports whether it asserted the virtual PIC line (the
// guest-visible behavior is unchanged; the result only steers span
// closing between the injection path and the masked-interrupt path).
func (a *VAHCI) interrupt() bool {
	if a.pis&a.pie != 0 {
		a.is |= 1
		if a.ghc&(1<<1) != 0 {
			a.IRQs++
			a.m.vPIC.RaiseIRQ(VAHCIIRQ)
			return true
		}
	}
	return false
}

// identify synthesizes IDENTIFY DEVICE data for the virtual drive.
func (a *VAHCI) identify() []byte {
	id := make([]byte, 512)
	binary.LittleEndian.PutUint16(id[0:], 0x0040)
	var sectors uint64 = 250e9 / 512
	if a.m.Cfg.BootDisk != nil {
		sectors = a.m.Cfg.BootDisk.Sectors
	}
	s28 := sectors
	if s28 > 0x0fffffff {
		s28 = 0x0fffffff
	}
	binary.LittleEndian.PutUint32(id[60*2:], uint32(s28))
	binary.LittleEndian.PutUint64(id[100*2:], sectors)
	return id
}

// handleDiskCompletions is the VMM's completion EC (Figure 4, step 7):
// woken by the disk server's doorbell, it reads the shared completion
// records, updates the device model and signals the virtual interrupt.
func (m *VMM) handleDiskCompletions() {
	m.K.ChargeUser(m.K.Plat.Cost.DeviceModelUpdate)
	for _, rec := range m.Cfg.DiskServer.Completions(m.diskClientID) {
		ok := uint64(0)
		if rec.OK {
			ok = 1
		}
		m.record(trace.KindDiskComplete, rec.Cookie, ok, 0, 0)
		m.vAHCI.Complete(int(rec.Cookie), rec.OK)
	}
}
