package prof

// pprof output: the profile rendered as a pprof profile.proto message,
// hand-encoded with the handful of protobuf primitives the format
// needs (varints and length-delimited fields), so `go tool pprof` can
// read nova profiles without this repo growing a protobuf dependency.
// The file is written raw (pprof accepts both raw and gzipped input).
//
// Every emission loop below walks sorted slices; the only map is the
// string/location interning index, which is looked up but never
// iterated, so the output bytes are deterministic.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// pbuf is a minimal protobuf message builder.
type pbuf struct {
	bytes.Buffer
}

func (b *pbuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

// uintField writes a varint-typed field (skipped when zero, matching
// proto3 defaults).
func (b *pbuf) uintField(field int, v uint64) {
	if v == 0 {
		return
	}
	b.varint(uint64(field)<<3 | 0) // wire type 0: varint
	b.varint(v)
}

// bytesField writes a length-delimited field.
func (b *pbuf) bytesField(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2) // wire type 2: length-delimited
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *pbuf) strField(field int, s string) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(s)))
	b.WriteString(s)
}

// packed writes a packed repeated varint field.
func (b *pbuf) packed(field int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	var body pbuf
	for _, v := range vals {
		body.varint(v)
	}
	b.bytesField(field, body.Bytes())
}

func (b *pbuf) msg(field int, m *pbuf) {
	b.bytesField(field, m.Bytes())
}

// frameRef is one interned pprof location: a display name plus the
// address placed in the [guest] mapping (zero for synthetic frames).
type frameRef struct {
	name string
	addr uint64
}

// WritePprof renders the profile as a pprof protobuf. Periodic samples
// become stack samples labeled event=sample; attributed virtualization
// events become single-frame samples labeled event=exit/vtlb-fill/
// emulate. Both carry two values: sample count and virtual cycles
// (estimated weight×period for samples, exact modeled cost for
// attributed events).
func (d *Data) WritePprof(w io.Writer) error {
	type row struct {
		key    string
		frames []frameRef
		mode   string
		event  string
		count  uint64
		cycles uint64
	}
	var rows []row
	var kb strings.Builder
	for _, per := range d.Samples {
		for _, s := range per {
			if len(s.Frames) == 0 {
				continue
			}
			r := row{mode: s.Mode.String(), event: "sample", count: s.Weight,
				cycles: s.Weight * d.Period}
			for _, f := range s.Frames {
				ref := frameRef{name: FrameName(s.Mode, f)}
				if s.Mode != ModeServer {
					ref.addr = uint64(f)
				}
				r.frames = append(r.frames, ref)
			}
			kb.Reset()
			kb.WriteString(r.event)
			kb.WriteByte(0)
			kb.WriteString(r.mode)
			for _, f := range r.frames {
				kb.WriteByte(0)
				kb.WriteString(f.name)
			}
			r.key = kb.String()
			rows = append(rows, r)
		}
	}
	for _, a := range d.Attrib {
		mode := ModeKernel
		if a.Kind == AttribEmulate {
			mode = ModeEmulation
		}
		r := row{
			frames: []frameRef{{name: FrameName(mode, a.RIP), addr: uint64(a.RIP)}},
			mode:   mode.String(), event: a.Kind.String(),
			count: a.Count, cycles: a.Cycles,
		}
		r.key = r.event + "\x00" + r.mode + "\x00" + r.frames[0].name
		rows = append(rows, r)
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	merged := rows[:0]
	for _, r := range rows {
		if n := len(merged); n > 0 && merged[n-1].key == r.key {
			merged[n-1].count += r.count
			merged[n-1].cycles += r.cycles
			continue
		}
		merged = append(merged, r)
	}

	// Interning: index maps are lookup-only; emission order comes from
	// the append-ordered slices.
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(strs))
		strs = append(strs, s)
		strIdx[s] = i
		return i
	}
	var locs []frameRef
	locIdx := map[string]uint64{}
	internLoc := func(f frameRef) uint64 {
		if i, ok := locIdx[f.name]; ok {
			return i
		}
		locs = append(locs, f)
		i := uint64(len(locs)) // ids are 1-based
		locIdx[f.name] = i
		return i
	}

	var p pbuf

	valueType := func(typ, unit string) *pbuf {
		var vt pbuf
		vt.uintField(1, intern(typ))
		vt.uintField(2, intern(unit))
		return &vt
	}
	p.msg(1, valueType("samples", "count")) // sample_type
	p.msg(1, valueType("cycles", "cycles"))

	modeKey, eventKey := intern("mode"), intern("event")
	for _, r := range merged {
		var s pbuf
		ids := make([]uint64, 0, len(r.frames))
		for _, f := range r.frames {
			ids = append(ids, internLoc(f))
		}
		s.packed(1, ids)                         // location_id, leaf first
		s.packed(2, []uint64{r.count, r.cycles}) // value
		for _, lab := range [...][2]uint64{{modeKey, intern(r.mode)}, {eventKey, intern(r.event)}} {
			var l pbuf
			l.uintField(1, lab[0]) // key
			l.uintField(2, lab[1]) // str
			s.msg(3, &l)
		}
		p.msg(2, &s) // sample
	}

	guestFile := intern("[guest]")
	var m pbuf
	m.uintField(1, 1)     // id
	m.uintField(3, 1<<32) // memory_limit: the 32-bit guest space
	m.uintField(5, guestFile)
	m.uintField(7, 1) // has_functions
	p.msg(3, &m)      // mapping

	for i, f := range locs {
		var l pbuf
		l.uintField(1, uint64(i+1)) // id
		l.uintField(2, 1)           // mapping_id
		l.uintField(3, f.addr)      // address
		var ln pbuf
		ln.uintField(1, uint64(i+1)) // line.function_id
		l.msg(4, &ln)
		p.msg(4, &l) // location
	}
	for i, f := range locs {
		name := intern(f.name)
		var fn pbuf
		fn.uintField(1, uint64(i+1)) // id
		fn.uintField(2, name)        // name
		fn.uintField(3, name)        // system_name
		fn.uintField(4, guestFile)   // filename
		p.msg(5, &fn)                // function
	}

	cyclesStr := intern("cycles")
	for _, s := range strs {
		p.strField(6, s) // string_table
	}
	var pt pbuf
	pt.uintField(1, cyclesStr)
	pt.uintField(2, cyclesStr)
	p.msg(11, &pt)             // period_type
	p.uintField(12, d.Period)  // period
	p.uintField(14, cyclesStr) // default_sample_type

	if _, err := w.Write(p.Bytes()); err != nil {
		return fmt.Errorf("prof: pprof write: %w", err)
	}
	return nil
}
