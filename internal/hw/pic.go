package hw

// I8259 models a cascaded pair of Intel 8259A programmable interrupt
// controllers (the classic PC master/slave arrangement, IRQ 0-15).
//
// The same model serves two roles in this repository, mirroring the
// paper's architecture: instantiated in the Platform it is the physical
// interrupt controller driven by the microhypervisor; instantiated in the
// user-level VMM it is the *virtual* PIC whose mask/ack/unmask port
// accesses by the guest cause the "Port I/O" VM exits that dominate
// Table 2.
type I8259 struct {
	irr uint16 // interrupt request register (pending lines)
	isr uint16 // in-service register
	imr uint16 // interrupt mask register

	baseMaster uint8 // vector offset programmed via ICW2
	baseSlave  uint8

	initState  [2]int // ICW sequence progress per chip
	readISR    [2]bool
	autoEOI    bool
	elcr       uint16 // edge/level control (for completeness)
	levelState uint16 // current level of each line, for level-triggered semantics

	// OutputChanged, if set, is called whenever the INTR output to the
	// CPU may have changed. The hypervisor (or VMM) uses it to schedule
	// interrupt delivery.
	OutputChanged func()

	// Counters for the evaluation.
	Raised uint64 // edges raised
	Acked  uint64 // vectors delivered to the CPU
	EOIs   uint64
}

// NewI8259 returns a PIC with the conventional PC vector bases (0x08 for
// the master, 0x70 for the slave) and all lines masked off except the
// cascade.
func NewI8259() *I8259 {
	return &I8259{baseMaster: 0x08, baseSlave: 0x70}
}

// RaiseIRQ asserts line (0-15).
func (p *I8259) RaiseIRQ(line int) {
	bit := uint16(1) << uint(line)
	p.levelState |= bit
	if p.irr&bit == 0 {
		p.irr |= bit
		p.Raised++
		p.notify()
	}
}

// LowerIRQ deasserts a level-triggered line.
func (p *I8259) LowerIRQ(line int) {
	bit := uint16(1) << uint(line)
	p.levelState &^= bit
	if p.elcr&bit != 0 { // level-triggered: dropping the line clears the request
		p.irr &^= bit
		p.notify()
	}
}

func (p *I8259) notify() {
	if p.OutputChanged != nil {
		p.OutputChanged()
	}
}

// pendingLine returns the highest-priority pending, unmasked line that is
// not blocked by an in-service interrupt of equal or higher priority, or
// -1. IRQ0 has the highest priority; the slave cascades through IRQ2.
func (p *I8259) pendingLine() int {
	avail := p.irr &^ p.imr
	if avail == 0 {
		return -1
	}
	for line := 0; line < 16; line++ {
		bit := uint16(1) << uint(line)
		if avail&bit == 0 {
			continue
		}
		// Blocked if a higher-or-equal priority interrupt is in service
		// on the same chip.
		if line < 8 {
			if p.isr&((bit<<1)-1) != 0 {
				continue
			}
		} else {
			if p.isr&0xff00&((bit<<1)-1) != 0 {
				continue
			}
		}
		return line
	}
	return -1
}

// HasPending reports whether the INTR output is asserted.
func (p *I8259) HasPending() bool { return p.pendingLine() >= 0 }

// Acknowledge performs the INTA cycle: it returns the vector of the
// highest-priority pending interrupt, moving it from IRR to ISR. It
// returns (0, false) when nothing is pending (spurious).
func (p *I8259) Acknowledge() (uint8, bool) {
	line := p.pendingLine()
	if line < 0 {
		return 0, false
	}
	bit := uint16(1) << uint(line)
	// Edge-triggered requests clear on acknowledge; level-triggered
	// requests persist while the line is high.
	if p.elcr&bit == 0 || p.levelState&bit == 0 {
		p.irr &^= bit
	}
	if !p.autoEOI {
		p.isr |= bit
	}
	p.Acked++
	if line < 8 {
		return p.baseMaster + uint8(line), true
	}
	return p.baseSlave + uint8(line-8), true
}

// LineFor maps an acknowledged vector back to its IRQ line using the
// programmed ICW2 bases (the inverse of Acknowledge's vector math). It
// is a pure lookup: no PIC state changes. Observability consumers use
// it to correlate an injected vector with the device line that raised
// it.
func (p *I8259) LineFor(vec uint8) (int, bool) {
	if d := int(vec) - int(p.baseMaster); d >= 0 && d < 8 {
		return d, true
	}
	if d := int(vec) - int(p.baseSlave); d >= 0 && d < 8 {
		return d + 8, true
	}
	return 0, false
}

// EOI signals end-of-interrupt for the highest-priority in-service line
// of the addressed chip (non-specific EOI).
func (p *I8259) eoi(slave bool) {
	p.EOIs++
	lo, hi := 0, 8
	if slave {
		lo, hi = 8, 16
	}
	for line := lo; line < hi; line++ {
		bit := uint16(1) << uint(line)
		if p.isr&bit != 0 {
			p.isr &^= bit
			p.notify()
			return
		}
	}
}

// IMR returns the current interrupt mask register.
func (p *I8259) IMR() uint16 { return p.imr }

// ISR returns the in-service register.
func (p *I8259) ISR() uint16 { return p.isr }

// IRR returns the interrupt request register.
func (p *I8259) IRR() uint16 { return p.irr }

// PortRead implements IOPortHandler for ports 0x20/0x21 (master) and
// 0xa0/0xa1 (slave), plus ELCR at 0x4d0/0x4d1.
func (p *I8259) PortRead(port uint16, size int) uint32 {
	switch port {
	case 0x20:
		if p.readISR[0] {
			return uint32(p.isr & 0xff)
		}
		return uint32(p.irr & 0xff)
	case 0xa0:
		if p.readISR[1] {
			return uint32(p.isr >> 8)
		}
		return uint32(p.irr >> 8)
	case 0x21:
		return uint32(p.imr & 0xff)
	case 0xa1:
		return uint32(p.imr >> 8)
	case 0x4d0:
		return uint32(p.elcr & 0xff)
	case 0x4d1:
		return uint32(p.elcr >> 8)
	}
	return 0xff
}

// PortWrite implements IOPortHandler.
func (p *I8259) PortWrite(port uint16, size int, val uint32) {
	v := uint8(val)
	switch port {
	case 0x20, 0xa0: // command
		chip := 0
		if port == 0xa0 {
			chip = 1
		}
		switch {
		case v&0x10 != 0: // ICW1: begin init sequence
			p.initState[chip] = 1
			if chip == 0 {
				p.irr &= 0xff00
				p.isr &= 0xff00
				p.imr &= 0xff00
			} else {
				p.irr &= 0x00ff
				p.isr &= 0x00ff
				p.imr &= 0x00ff
			}
		case v&0x08 != 0: // OCW3
			switch v & 0x03 {
			case 0x02:
				p.readISR[chip] = false
			case 0x03:
				p.readISR[chip] = true
			}
		default: // OCW2
			if v&0x20 != 0 { // EOI (non-specific or specific)
				p.eoi(chip == 1)
			}
		}
	case 0x21, 0xa1: // data
		chip := 0
		if port == 0xa1 {
			chip = 1
		}
		switch p.initState[chip] {
		case 1: // ICW2: vector base
			if chip == 0 {
				p.baseMaster = v & 0xf8
			} else {
				p.baseSlave = v & 0xf8
			}
			p.initState[chip] = 2
		case 2: // ICW3: cascade wiring (fixed in this model)
			p.initState[chip] = 3
		case 3: // ICW4
			p.autoEOI = v&0x02 != 0
			p.initState[chip] = 0
		default: // OCW1: mask register
			if chip == 0 {
				p.imr = p.imr&0xff00 | uint16(v)
			} else {
				p.imr = p.imr&0x00ff | uint16(v)<<8
			}
			p.notify()
		}
	case 0x4d0:
		p.elcr = p.elcr&0xff00 | uint16(v)
	case 0x4d1:
		p.elcr = p.elcr&0x00ff | uint16(v)<<8
	}
}
