package hw

// PITInputHz is the 8254's input clock frequency.
const PITInputHz = 1193182

// I8254 models channel 0 of the PC's 8254 programmable interval timer as
// a periodic interrupt source on IRQ 0. Like the PIC, the same model is
// used both as the physical scheduling timer (driven by the
// microhypervisor) and as the VMM's virtual timer device.
type I8254 struct {
	queue   *EventQueue
	clock   func() Cycles // current time source
	freqMHz int           // CPU frequency, for Hz->cycles conversion
	raise   func()        // IRQ0 edge callback

	reload    uint16 // channel 0 reload value
	latchLow  bool   // LSB already written in lobyte/hibyte mode
	partial   uint16
	mode      uint8
	running   bool
	tick      Event // the next channel-0 edge, rescheduled per period
	periodCyc Cycles

	Ticks uint64 // interrupts generated
}

// NewI8254 creates a PIT whose ticks are scheduled on queue. clock
// supplies the current time, freqMHz converts PIT periods to cycles, and
// raise is invoked on every channel-0 output edge.
func NewI8254(queue *EventQueue, clock func() Cycles, freqMHz int, raise func()) *I8254 {
	p := &I8254{queue: queue, clock: clock, freqMHz: freqMHz, raise: raise}
	p.tick.Do = p.fire
	return p
}

// Period returns the current channel-0 period in cycles (0 if not
// programmed).
func (p *I8254) Period() Cycles { return p.periodCyc }

func (p *I8254) program(reload uint16) {
	if reload == 0 {
		reload = 0xffff // hardware treats 0 as 65536
	}
	p.reload = reload
	// period = reload / 1.193182 MHz, in CPU cycles.
	p.periodCyc = Cycles(uint64(reload) * uint64(p.freqMHz) * 1000000 / PITInputHz)
	if p.periodCyc == 0 {
		p.periodCyc = 1
	}
	p.start()
}

func (p *I8254) start() {
	p.stop()
	p.running = true
	p.schedule()
}

func (p *I8254) stop() {
	p.queue.Cancel(&p.tick)
	p.running = false
}

func (p *I8254) schedule() {
	p.queue.Schedule(&p.tick, p.clock()+p.periodCyc)
}

// fire is the channel-0 output edge.
func (p *I8254) fire() {
	if !p.running {
		return
	}
	p.Ticks++
	p.raise()
	if p.mode != 0 { // mode 2/3: periodic
		p.schedule()
	}
}

// Stop halts the timer (used when tearing a platform down).
func (p *I8254) Stop() { p.stop() }

// PortRead implements IOPortHandler for ports 0x40-0x43 and 0x61.
func (p *I8254) PortRead(port uint16, size int) uint32 {
	switch port {
	case 0x40:
		// Counter read-back: return the reload value halves in sequence.
		if !p.latchLow {
			p.latchLow = true
			return uint32(p.reload & 0xff)
		}
		p.latchLow = false
		return uint32(p.reload >> 8)
	case 0x61: // NMI status / speaker port, timer 2 output bit toggles
		return 0x20
	}
	return 0xff
}

// PortWrite implements IOPortHandler.
func (p *I8254) PortWrite(port uint16, size int, val uint32) {
	v := uint8(val)
	switch port {
	case 0x43: // control word
		ch := v >> 6
		if ch != 0 {
			return // only channel 0 modeled as interrupt source
		}
		p.mode = (v >> 1) & 0x07
		p.latchLow = false
	case 0x40: // channel 0 data: lobyte/hibyte sequence
		if !p.latchLow {
			p.partial = uint16(v)
			p.latchLow = true
		} else {
			p.latchLow = false
			p.program(p.partial | uint16(v)<<8)
		}
	}
}
