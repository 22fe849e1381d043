package prof

import (
	"nova/internal/hw"
	"nova/internal/trace"
)

// recHdrSize is the fixed prefix of one sample record:
// time(8) + weight(8) + mode(1) + def32(1) + nframes(1).
const recHdrSize = 8 + 8 + 1 + 1 + 1

// attribEntrySize is the fixed size of one attribution record:
// kind(1) + def32(1) + rip(4) + count(8) + cycles(8).
const attribEntrySize = 1 + 1 + 4 + 8 + 8

// codeHdrSize is the fixed prefix of one code site: addr(4) + def32(1)
// + length(1).
const codeHdrSize = 4 + 1 + 1

// WriteBody appends the profile section body: the grid period and
// buffer capacity, the per-CPU sample buffers, the attribution table
// and the code sites. The attribution keys are pre-sorted, so two runs
// from identical inputs write identical bytes.
func (d *Data) WriteBody(e *trace.Enc) {
	e.U64(d.Period)
	e.U32(uint32(d.Capacity))
	for cpu, per := range d.Samples {
		e.U64(d.Overwritten[cpu])
		e.U32(uint32(len(per)))
		for _, s := range per {
			e.U64(uint64(s.Time))
			e.U64(s.Weight)
			e.U8(uint8(s.Mode))
			e.Bool(s.Def32)
			e.U8(uint8(len(s.Frames)))
			for _, f := range s.Frames {
				e.U32(f)
			}
		}
	}
	e.U32(uint32(len(d.Attrib)))
	for _, a := range d.Attrib {
		e.U8(uint8(a.Kind))
		e.Bool(a.Def32)
		e.U32(a.RIP)
		e.U64(a.Count)
		e.U64(a.Cycles)
	}
	e.U32(uint32(len(d.Code)))
	for _, c := range d.Code {
		e.U32(c.Addr)
		e.Bool(c.Def32)
		e.U8(uint8(len(c.Bytes)))
		e.B = append(e.B, c.Bytes...)
	}
}

// ReadBody reads a profile section body of cpus sample buffers. Every
// count is checked against the bytes left before anything is
// allocated for it.
func ReadBody(dec *trace.Dec, cpus int) *Data {
	d := &Data{Period: dec.U64(), Capacity: int(dec.U32())}
	for cpu := 0; cpu < cpus && dec.Err == nil; cpu++ {
		d.Overwritten = append(d.Overwritten, dec.U64())
		per := make([]Sample, dec.Count(recHdrSize))
		for i := range per {
			s := Sample{Time: hw.Cycles(dec.U64()), Weight: dec.U64(), Mode: Mode(dec.U8()), Def32: dec.Bool()}
			nf := int(dec.U8())
			if nf > MaxFrames {
				dec.Fail("prof: %d frames in one sample", nf)
			}
			for f := 0; f < nf && dec.Err == nil; f++ {
				s.Frames = append(s.Frames, dec.U32())
			}
			per[i] = s
		}
		d.Samples = append(d.Samples, per)
	}
	d.Attrib = make([]AttribEntry, dec.Count(attribEntrySize))
	for i := range d.Attrib {
		d.Attrib[i] = AttribEntry{Kind: AttribKind(dec.U8()), Def32: dec.Bool(), RIP: dec.U32(), Count: dec.U64(), Cycles: dec.U64()}
	}
	d.Code = make([]CodeSite, dec.Count(codeHdrSize))
	for i := range d.Code {
		c := CodeSite{Addr: dec.U32(), Def32: dec.Bool()}
		n := int(dec.U8())
		if n == 0 || n > maxInstBytes {
			dec.Fail("prof: %d code bytes at one site", n)
		}
		c.Bytes = append([]byte(nil), dec.Raw(n)...)
		d.Code[i] = c
	}
	return d
}
