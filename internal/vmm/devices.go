package vmm

import (
	"nova/internal/hypervisor"
	"nova/internal/trace"
	"nova/internal/x86"
)

// BIOSTrapPort is the magic port the virtual BIOS stubs hit: moving the
// BIOS into the VMM (§7.4) means each INT service is a single trap
// instead of a long emulated real-mode code path.
const BIOSTrapPort = 0xb1

// VIPIPort delivers virtual inter-processor interrupts in
// multiprocessor guests (§7.5): a 16-bit write of target<<8|vector asks
// the VMM to inject the vector into the target vCPU, recalling it if it
// currently runs — the mechanism behind the paper's TLB-shootdown
// example.
const VIPIPort = 0xf2

// handleIO emulates an intercepted IN/OUT by updating the owning
// virtual device's state machine (§7.2).
func (m *VMM) handleIO(msg *hypervisor.UTCB) error {
	m.K.ChargeUser(m.K.Plat.Cost.DeviceModelUpdate)
	if m.SabotageIO {
		// Attack-scenario hook: a compromised VMM crashing in its
		// handler (§4.2 "Guest Attacks").
		return errSabotaged
	}
	e := &msg.Exit
	if e.In {
		val := m.portRead(e.Port, e.Size)
		m.record(trace.KindPIO, uint64(e.Port), 1, uint64(val), uint64(e.Size))
		msg.State.SetReg(x86.EAX, e.Size, val)
	} else {
		m.record(trace.KindPIO, uint64(e.Port), 0, uint64(e.OutVal), uint64(e.Size))
		switch e.Port {
		case BIOSTrapPort:
			m.biosCall(msg)
		case VIPIPort:
			m.sendIPI(e.OutVal)
		default:
			m.portWrite(e.Port, e.Size, e.OutVal)
		}
	}
	msg.State.EIP += uint32(e.InstLen)
	return nil
}

// sendIPI injects a vector into another vCPU. Pending same-vector IPIs
// coalesce, as on hardware.
func (m *VMM) sendIPI(val uint32) {
	target := int(val >> 8 & 0xff)
	vector := uint8(val)
	if target >= len(m.ECs) {
		return
	}
	m.record(trace.KindArmInject, uint64(vector), 1, 0, 0)
	m.K.InjectIRQ(m.PD, m.ECs[target], vector) //nolint:errcheck
}

// portRead dispatches an IN to the virtual device models.
func (m *VMM) portRead(port uint16, size int) uint32 {
	switch {
	case port >= 0x20 && port <= 0x21, port >= 0xa0 && port <= 0xa1, port == 0x4d0, port == 0x4d1:
		return m.vPIC.PortRead(port, size)
	case port >= 0x40 && port <= 0x43, port == 0x61:
		return m.vPIT.PortRead(port, size)
	case port >= m.vSerial.Base() && port < m.vSerial.Base()+8:
		return m.vSerial.PortRead(port, size)
	case port >= 0xcf8 && port <= 0xcff:
		return m.vPCI.PortRead(port, size)
	case port == 0x60, port == 0x64:
		return m.vKBD.PortRead(port, size)
	case port == 0x92: // A20 gate: already enabled
		return 0x02
	case port == 0x70, port == 0x71: // CMOS: not modeled
		return 0
	}
	switch size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

// portWrite dispatches an OUT to the virtual device models.
func (m *VMM) portWrite(port uint16, size int, val uint32) {
	switch {
	case port >= 0x20 && port <= 0x21, port >= 0xa0 && port <= 0xa1, port == 0x4d0, port == 0x4d1:
		m.vPIC.PortWrite(port, size, val)
	case port >= 0x40 && port <= 0x43, port == 0x61:
		m.vPIT.PortWrite(port, size, val)
	case port >= m.vSerial.Base() && port < m.vSerial.Base()+8:
		m.vSerial.PortWrite(port, size, val)
	case port >= 0xcf8 && port <= 0xcff:
		m.vPCI.PortWrite(port, size, val)
	case port == 0x60, port == 0x64:
		m.vKBD.PortWrite(port, size, val)
	case port == 0x80: // POST code: discard
	}
}

// mmioRead dispatches an emulated load from a virtual device window.
func (m *VMM) mmioRead(gpa uint64, size int) (uint32, bool) {
	if m.vAHCI != nil && gpa >= VAHCIBase && gpa < VAHCIBase+0x1000 {
		val := m.vAHCI.MMIORead(uint32(gpa-VAHCIBase), size)
		m.record(trace.KindMMIO, gpa, 1, uint64(val), uint64(size))
		return val, true
	}
	return 0, false
}

// mmioWrite dispatches an emulated store to a virtual device window.
func (m *VMM) mmioWrite(gpa uint64, size int, val uint32) bool {
	if m.vAHCI != nil && gpa >= VAHCIBase && gpa < VAHCIBase+0x1000 {
		m.record(trace.KindMMIO, gpa, 0, uint64(val), uint64(size))
		m.vAHCI.MMIOWrite(uint32(gpa-VAHCIBase), size, val)
		return true
	}
	return false
}

// InjectKey delivers a keystroke to the guest: the scancode appears at
// the virtual keyboard controller (raising IRQ 1) and the
// scancode/ASCII pair is queued for the BIOS INT 16h services.
//
// nocharge: models an external input event (a human keypress), which
// costs the machine nothing until the guest services the interrupt.
func (m *VMM) InjectKey(scancode, ascii byte) {
	m.vKBD.Inject(scancode)
	m.biosKeys = append(m.biosKeys, uint16(scancode)<<8|uint16(ascii))
}

// InjectString types a string through the BIOS key queue.
func (m *VMM) InjectString(s string) {
	for _, c := range []byte(s) {
		m.InjectKey(0, c)
	}
}

// TextScreen decodes the guest's VGA text buffer (guest-physical
// 0xB8000, mapped straight into the VM as the paper suggests for frame
// buffers) into 25 lines of 80 characters.
func (m *VMM) TextScreen() []string {
	const base, cols, rows = 0xb8000, 80, 25
	raw := m.GuestRead(base, make([]byte, cols*rows*2))
	if raw == nil {
		return nil
	}
	lines := make([]string, rows)
	for r := 0; r < rows; r++ {
		b := make([]byte, cols)
		for c := 0; c < cols; c++ {
			ch := raw[(r*cols+c)*2]
			if ch < 0x20 || ch > 0x7e {
				ch = ' '
			}
			b[c] = ch
		}
		lines[r] = string(b)
	}
	return lines
}
