package vmm

import (
	"encoding/binary"
	"fmt"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/span"
	"nova/internal/trace"
	"nova/internal/x86"
)

// Virtual BIOS (§7.4). Instead of injecting BIOS code into the guest
// and emulating slow real-mode execution, the BIOS is integrated with
// the VMM: every interrupt vector points to a four-byte stub in the
// BIOS segment that performs a single OUT to the BIOS trap port. The
// resulting VM exit runs the service directly against the device
// models, and the stub's IRET resumes the guest. The BIOS code is also
// invisible to the guest (it sees only the stubs).

// biosSegBase is the guest-physical base of the BIOS stub area.
const biosSegBase = 0xf0000

// Virtual disk geometry reported by INT 13h AH=08.
const (
	biosHeads         = 16
	biosSectorsPerTrk = 63
)

// SetupBIOS installs the interrupt vector table, the BIOS data area and
// the trap stubs into guest memory.
func (m *VMM) SetupBIOS() error {
	if m.size < biosSegBase+0x10000 {
		return fmt.Errorf("vmm: guest memory too small for the BIOS segment")
	}
	// IVT: vector n -> F000:n*4.
	ivt := make([]byte, 1024)
	for n := 0; n < 256; n++ {
		binary.LittleEndian.PutUint16(ivt[n*4:], uint16(n*4))
		binary.LittleEndian.PutUint16(ivt[n*4+2:], 0xf000)
	}
	if err := m.GuestWrite(0, ivt); err != nil {
		return err
	}
	// Stubs: out BIOSTrapPort, al ; iret ; nop.
	stubs := make([]byte, 1024)
	for n := 0; n < 256; n++ {
		stubs[n*4] = 0xe6
		stubs[n*4+1] = BIOSTrapPort
		stubs[n*4+2] = 0xcf
		stubs[n*4+3] = 0x90
	}
	if err := m.GuestWrite(biosSegBase, stubs); err != nil {
		return err
	}
	// BIOS data area: COM1 port, base memory size.
	bda := make([]byte, 256)
	binary.LittleEndian.PutUint16(bda[0x00:], 0x3f8)
	binary.LittleEndian.PutUint16(bda[0x13:], 639)
	return m.GuestWrite(0x400, bda)
}

// Boot performs the BIOS power-on path: install the stubs, load the
// boot sector from LBA 0 to 0000:7C00 and point the vCPU at it with the
// conventional register state.
func (m *VMM) Boot() error {
	if err := m.SetupBIOS(); err != nil {
		return err
	}
	if m.Cfg.BootDisk != nil {
		sector := make([]byte, hw.SectorSize)
		if err := m.Cfg.BootDisk.ReadSectors(0, 1, sector); err != nil {
			return err
		}
		if err := m.GuestWrite(0x7c00, sector); err != nil {
			return err
		}
	}
	st := &m.EC.VCPU.State
	st.Reset()
	st.EIP = 0x7c00
	st.GPR[x86.ESP] = 0x7000
	st.SetReg8(x86.EDX, 0x80) // boot drive
	return nil
}

// LoadImage writes a flat binary into guest memory (used by multiboot
// loading and the test workloads).
func (m *VMM) LoadImage(gpa uint64, image []byte) error {
	return m.GuestWrite(gpa, image)
}

// biosCall dispatches a BIOS service trap. The vector is recovered from
// the stub's position: CS=F000, IP = vector*4.
func (m *VMM) biosCall(msg *hypervisor.UTCB) {
	vector := uint8(msg.State.EIP / 4)
	st := &msg.State
	m.record(trace.KindBIOSCall, uint64(vector), uint64(st.GPR[x86.EAX]>>8&0xff), 0, 0)
	switch vector {
	case 0x10:
		m.bios10(st)
	case 0x11: // equipment: one floppy-less disk, COM1
		st.SetReg(x86.EAX, 2, 0x0201)
	case 0x12: // base memory in KB
		st.SetReg(x86.EAX, 2, 639)
	case 0x13:
		m.bios13(msg)
	case 0x15:
		m.bios15(msg)
	case 0x16:
		m.bios16(msg)
	case 0x1a:
		m.bios1a(st)
	default:
		m.setCF(msg, true)
	}
}

// setCF writes the carry flag into the FLAGS image the INT pushed on
// the guest stack, so it survives the stub's IRET.
func (m *VMM) setCF(msg *hypervisor.UTCB, cf bool) {
	sp := msg.State.GPR[x86.ESP] & 0xffff
	flagsGPA := uint64(msg.State.Seg[x86.SS].Base) + uint64((sp+4)&0xffff)
	var buf [2]byte
	b := m.GuestRead(flagsGPA, buf[:])
	if b == nil {
		return
	}
	fl := binary.LittleEndian.Uint16(b)
	if cf {
		fl |= 1
	} else {
		fl &^= 1
	}
	var out [2]byte
	binary.LittleEndian.PutUint16(out[:], fl)
	m.GuestWrite(flagsGPA, out[:]) //nolint:errcheck
}

// bios10 implements the video services we need: teletype output.
func (m *VMM) bios10(st *x86.CPUState) {
	switch st.Reg8(4) { // AH
	case 0x0e:
		m.console = append(m.console, st.Reg8(x86.EAX))
	case 0x00, 0x01, 0x02, 0x03: // mode/cursor: accepted
		st.SetReg(x86.EDX, 2, 0)
	}
}

// bios13 implements the disk services: reset, CHS read, extended read,
// geometry.
func (m *VMM) bios13(msg *hypervisor.UTCB) {
	st := &msg.State
	if m.Cfg.BootDisk == nil {
		m.setCF(msg, true)
		st.SetReg8(4, 0x01)
		return
	}
	switch st.Reg8(4) { // AH
	case 0x00: // reset
		m.setCF(msg, false)
		st.SetReg8(4, 0)
	case 0x02: // CHS read: AL sectors, CH cyl, CL sector, DH head, ES:BX
		count := int(st.Reg8(x86.EAX))
		cyl := uint64(st.Reg8(5)) | uint64(st.Reg8(x86.ECX)&0xc0)<<2 // CH + CL[7:6]
		sec := uint64(st.Reg8(x86.ECX) & 0x3f)
		head := uint64(st.Reg8(6))
		lba := (cyl*biosHeads+head)*biosSectorsPerTrk + sec - 1
		buf := uint64(st.Seg[x86.ES].Base) + uint64(st.Reg(x86.EBX, 2))
		m.biosDiskRead(msg, lba, count, buf)
	case 0x42: // extended read: DS:SI -> disk address packet
		dap := uint64(st.Seg[x86.DS].Base) + uint64(st.Reg(x86.ESI, 2))
		var buf [16]byte
		pkt := m.GuestRead(dap, buf[:])
		if pkt == nil {
			m.setCF(msg, true)
			return
		}
		count := int(binary.LittleEndian.Uint16(pkt[2:]))
		off := uint64(binary.LittleEndian.Uint16(pkt[4:]))
		seg := uint64(binary.LittleEndian.Uint16(pkt[6:]))
		lba := binary.LittleEndian.Uint64(pkt[8:])
		m.biosDiskRead(msg, lba, count, seg<<4+off)
	case 0x08: // geometry
		st.SetReg8(5, 0xff)                    // CH: low cylinders
		st.SetReg8(x86.ECX, biosSectorsPerTrk) // CL
		st.SetReg8(6, biosHeads-1)             // DH: max head
		st.SetReg8(x86.EDX, 1)                 // DL: one drive
		m.setCF(msg, false)
	case 0x41: // extensions present
		st.SetReg(x86.EBX, 2, 0xaa55)
		st.SetReg(x86.ECX, 2, 0x01)
		m.setCF(msg, false)
	default:
		m.setCF(msg, true)
		st.SetReg8(4, 0x01)
	}
}

// biosDiskRead reads synchronously from the boot disk into guest
// memory, charging the media service time (boot-time path; runtime I/O
// goes through the disk server).
func (m *VMM) biosDiskRead(msg *hypervisor.UTCB, lba uint64, count int, gpa uint64) {
	st := &msg.State
	cpu := m.K.CurCPU()
	// Synchronous span: the whole INT 13h service runs inline, so the
	// span opens and closes within this call (no queueing segment).
	sp := m.K.Spans.Open(cpu, m.K.Now(), span.ClassBIOSDisk, span.SegEmul, lba)
	// The sector count is guest-written (AL, or the DAP's 16-bit field);
	// reject anything beyond the conventional 127-sector BIOS transfer
	// limit instead of sizing an allocation by it.
	if count <= 0 || count > 127 {
		m.K.Spans.Close(cpu, m.K.Now(), sp, span.StatusError)
		m.setCF(msg, true)
		st.SetReg8(4, 0x01)
		return
	}
	m.K.Spans.Annotate(cpu, m.K.Now(), sp, span.AnnotSectors, uint64(count))
	buf := make([]byte, count*hw.SectorSize)
	if err := m.Cfg.BootDisk.ReadSectors(lba, count, buf); err != nil {
		m.K.Spans.Close(cpu, m.K.Now(), sp, span.StatusError)
		m.setCF(msg, true)
		st.SetReg8(4, 0x04)
		return
	}
	if err := m.GuestWrite(gpa, buf); err != nil {
		m.K.Spans.Close(cpu, m.K.Now(), sp, span.StatusError)
		m.setCF(msg, true)
		st.SetReg8(4, 0x09)
		return
	}
	// The media access itself is the served part of the request.
	m.K.Spans.Transition(cpu, m.K.Now(), sp, span.SegServer)
	m.K.ChargeUser(m.Cfg.BootDisk.ServiceTime(len(buf)))
	m.K.Spans.Close(cpu, m.K.Now(), sp, span.StatusOK)
	m.setCF(msg, false)
	st.SetReg8(4, 0)
	st.SetReg8(x86.EAX, uint8(count))
}

// bios15 implements the system services: E820 memory map and legacy
// extended-memory queries.
func (m *VMM) bios15(msg *hypervisor.UTCB) {
	st := &msg.State
	switch {
	case st.Reg(x86.EAX, 2) == 0xe820 && st.GPR[x86.EDX] == 0x534d4150: // 'SMAP'
		type region struct {
			base, length uint64
			kind         uint32
		}
		regions := []region{
			{0, 0x9fc00, 1},
			{0x100000, m.size - 0x100000, 1},
		}
		idx := st.GPR[x86.EBX]
		if idx >= uint64AsU32(len(regions)) {
			m.setCF(msg, true)
			return
		}
		r := regions[idx]
		buf := make([]byte, 20)
		binary.LittleEndian.PutUint64(buf[0:], r.base)
		binary.LittleEndian.PutUint64(buf[8:], r.length)
		binary.LittleEndian.PutUint32(buf[16:], r.kind)
		dst := uint64(st.Seg[x86.ES].Base) + uint64(st.Reg(x86.EDI, 2))
		m.GuestWrite(dst, buf) //nolint:errcheck
		st.GPR[x86.EAX] = 0x534d4150
		st.GPR[x86.ECX] = 20
		if int(idx)+1 < len(regions) {
			st.GPR[x86.EBX] = idx + 1
		} else {
			st.GPR[x86.EBX] = 0
		}
		m.setCF(msg, false)
	case st.Reg8(4) == 0x88: // extended memory in KB above 1M
		kb := (m.size - 0x100000) / 1024
		if kb > 0xffff {
			kb = 0xffff
		}
		st.SetReg(x86.EAX, 2, uint32(kb))
		m.setCF(msg, false)
	default:
		m.setCF(msg, true)
	}
}

func uint64AsU32(v int) uint32 { return uint32(v) }

// bios16 implements the keyboard services over the injected key queue.
func (m *VMM) bios16(msg *hypervisor.UTCB) {
	st := &msg.State
	switch st.Reg8(4) {
	case 0x00: // blocking read
		if len(m.biosKeys) > 0 {
			st.SetReg(x86.EAX, 2, uint32(m.biosKeys[0]))
			m.biosKeys = m.biosKeys[1:]
		} else {
			// No input source: report Enter so boot prompts proceed.
			st.SetReg(x86.EAX, 2, 0x1c0d)
		}
	case 0x01: // poll: ZF in the stacked flags mirrors queue state
		sp := st.GPR[x86.ESP] & 0xffff
		flagsGPA := uint64(st.Seg[x86.SS].Base) + uint64((sp+4)&0xffff)
		var buf [2]byte
		if b := m.GuestRead(flagsGPA, buf[:]); b != nil {
			fl := binary.LittleEndian.Uint16(b)
			if len(m.biosKeys) == 0 {
				fl |= uint16(x86.FlagZF)
			} else {
				fl &^= uint16(x86.FlagZF)
				st.SetReg(x86.EAX, 2, uint32(m.biosKeys[0]))
			}
			var out [2]byte
			binary.LittleEndian.PutUint16(out[:], fl)
			m.GuestWrite(flagsGPA, out[:]) //nolint:errcheck
		}
	}
}

// bios1a implements the time-of-day tick counter (18.2 Hz).
func (m *VMM) bios1a(st *x86.CPUState) {
	if st.Reg8(4) != 0 {
		return
	}
	cycles := uint64(m.K.Plat.CPUs[m.Cfg.CPU].Clock.Now())
	ticksPerSec := 18.2065
	ticks := uint64(float64(cycles) / (float64(m.K.Plat.Cost.FreqMHz) * 1e6) * ticksPerSec)
	st.SetReg(x86.EDX, 2, uint32(ticks))
	st.SetReg(x86.ECX, 2, uint32(ticks>>16))
	st.SetReg8(x86.EAX, 0)
}
