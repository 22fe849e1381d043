package hw

import "fmt"

// SectorSize is the logical block size of the simulated SATA disk.
const SectorSize = 512

// Disk models the paper's 250 GB Hitachi SATA drive: a sparse backing
// store plus a service-time model. Sequential reads are limited both by
// a maximum request rate (command overhead — dominant for small blocks,
// giving Figure 6's flat region below 8 KiB) and by media bandwidth
// (dominant for large blocks, giving the linear fall-off).
type Disk struct {
	Sectors uint64 // capacity in 512-byte sectors

	// BandwidthMBs is the sustained media transfer rate in MB/s.
	BandwidthMBs float64
	// MaxIOPS bounds the request rate for small transfers.
	MaxIOPS float64

	freqMHz int

	written map[uint64][]byte // sparse overlay of written sectors

	// Counters.
	Reads, Writes             uint64
	BytesRead, BytesWritten   uint64
	BusyUntil                 Cycles // media busy horizon for queuing
	TotalServiceCycles        Cycles
	TotalQueuedRequestsServed uint64
}

// NewDisk creates a disk of the given capacity. freqMHz converts service
// times to cycles of the platform clock.
func NewDisk(sectors uint64, bandwidthMBs, maxIOPS float64, freqMHz int) *Disk {
	return &Disk{
		Sectors:      sectors,
		BandwidthMBs: bandwidthMBs,
		MaxIOPS:      maxIOPS,
		freqMHz:      freqMHz,
		written:      make(map[uint64][]byte),
	}
}

// The synthetic content is a 64-bit LCG, x' = lcgA·x + lcgC, whose
// state after each step gives one byte. Four steps at once are
// x' = lcgA4·x + lcgC4 (all arithmetic mod 2^64).
const (
	lcgA  = 6364136223846793005
	lcgC  = 1442695040888963407
	lcgA2 = lcgA * lcgA % (1 << 64)
	lcgA3 = lcgA2 * lcgA % (1 << 64)
	lcgA4 = lcgA2 * lcgA2 % (1 << 64)
	lcgC4 = lcgC * (lcgA3 + lcgA2 + lcgA + 1) % (1 << 64)
)

// synthSector fills b with the deterministic content of sector lba:
// reproducible pseudo-data standing in for a real filesystem image.
// Byte i is the top bits of the LCG state after i+1 steps from a seed
// derived from lba. The states are computed in four independent lanes,
// lane j holding the states of bytes j, j+4, j+8, ..., so the loop has
// no serial chain of multiplies; the bytes are those of stepping once
// per byte.
func synthSector(lba uint64, b []byte) {
	x := lba*2654435761 + 0x9e3779b9
	x0 := x*lcgA + lcgC
	x1 := x0*lcgA + lcgC
	x2 := x1*lcgA + lcgC
	x3 := x2*lcgA + lcgC
	for len(b) >= 4 {
		b[0], b[1], b[2], b[3] = byte(x0>>33), byte(x1>>33), byte(x2>>33), byte(x3>>33)
		x0 = x0*lcgA4 + lcgC4
		x1 = x1*lcgA4 + lcgC4
		x2 = x2*lcgA4 + lcgC4
		x3 = x3*lcgA4 + lcgC4
		b = b[4:]
	}
	switch len(b) {
	case 3:
		b[2] = byte(x2 >> 33)
		fallthrough
	case 2:
		b[1] = byte(x1 >> 33)
		fallthrough
	case 1:
		b[0] = byte(x0 >> 33)
	}
}

// ReadSectors copies count sectors starting at lba into buf.
func (d *Disk) ReadSectors(lba uint64, count int, buf []byte) error {
	if len(buf) < count*SectorSize {
		return fmt.Errorf("hw: disk read buffer too small: %d < %d", len(buf), count*SectorSize)
	}
	if lba+uint64(count) > d.Sectors {
		return fmt.Errorf("hw: disk read [%d,%d) beyond capacity %d", lba, lba+uint64(count), d.Sectors)
	}
	for i := 0; i < count; i++ {
		dst := buf[i*SectorSize : (i+1)*SectorSize]
		if s, ok := d.written[lba+uint64(i)]; ok {
			copy(dst, s)
		} else {
			synthSector(lba+uint64(i), dst)
		}
	}
	d.Reads++
	d.BytesRead += uint64(count) * SectorSize
	return nil
}

// WriteSectors stores count sectors from buf at lba.
func (d *Disk) WriteSectors(lba uint64, count int, buf []byte) error {
	if len(buf) < count*SectorSize {
		return fmt.Errorf("hw: disk write buffer too small: %d < %d", len(buf), count*SectorSize)
	}
	if lba+uint64(count) > d.Sectors {
		return fmt.Errorf("hw: disk write [%d,%d) beyond capacity %d", lba, lba+uint64(count), d.Sectors)
	}
	// One copy per request, each sector a slice of it.
	store := make([]byte, count*SectorSize)
	copy(store, buf)
	for i := 0; i < count; i++ {
		d.written[lba+uint64(i)] = store[i*SectorSize : (i+1)*SectorSize : (i+1)*SectorSize]
	}
	d.Writes++
	d.BytesWritten += uint64(count) * SectorSize
	return nil
}

// ServiceTime returns how many cycles a request of the given byte size
// occupies the media: max(command overhead, transfer time).
func (d *Disk) ServiceTime(bytes int) Cycles {
	perReq := 1e6 / d.MaxIOPS                             // µs
	xfer := float64(bytes) / (d.BandwidthMBs * 1e6) * 1e6 // µs
	t := perReq
	if xfer > t {
		t = xfer
	}
	return Cycles(t * float64(d.freqMHz))
}

// Schedule returns the completion time for a request issued at now,
// honouring media serialization (a request queued behind another waits).
func (d *Disk) Schedule(now Cycles, bytes int) Cycles {
	start := now
	if d.BusyUntil > start {
		start = d.BusyUntil
	}
	svc := d.ServiceTime(bytes)
	d.BusyUntil = start + svc
	d.TotalServiceCycles += svc
	d.TotalQueuedRequestsServed++
	return d.BusyUntil
}
