// Package obs is the one file format of the observability sinks: what
// the tracer, the stat registry, the span recorder and the profiler of
// one machine recorded, saved together and read back by cmd/nova-obs.
//
// A file is the magic "NOVAOBS1", a header naming the machine (CPU
// model, clock rate, CPU count), then one section per attached sink in
// a fixed order: a tag byte, a 32-bit length and the body the sink's
// own package writes (trace, stat, span, prof WriteBody). Every part is
// deterministic, so two runs of the same workload write byte-identical
// files, and so do runs that differ only in host-side settings (the
// decode cache and its fused runs). Decode accepts exactly what Encode writes: a
// decoded file re-encodes to the same bytes.
package obs

import (
	"fmt"

	"nova/internal/prof"
	"nova/internal/span"
	"nova/internal/stat"
	"nova/internal/trace"
)

const magic = "NOVAOBS1"

// Section tags, in file order.
const (
	tagTrace uint8 = 1 + iota
	tagStat
	tagSpans
	tagProf
)

// Header describes the machine a file's sinks observed.
type Header struct {
	Model   string `json:"model"`
	FreqMHz int    `json:"freq_mhz"`
	NumCPUs int    `json:"num_cpus"`
}

// File is one machine's recorded observations; a nil section is a sink
// that was not attached.
type File struct {
	Header
	Trace *trace.Data
	Stat  *stat.Data
	Spans *span.Data
	Prof  *prof.Data
}

// Encode serializes the file.
func (f *File) Encode() []byte {
	e := &trace.Enc{B: []byte(magic)}
	e.JSON(f.Header)
	section := func(tag uint8, write func(*trace.Enc)) {
		var body trace.Enc
		write(&body)
		e.U8(tag)
		e.Bytes(body.B)
	}
	if f.Trace != nil {
		section(tagTrace, f.Trace.WriteBody)
	}
	if f.Stat != nil {
		section(tagStat, f.Stat.WriteBody)
	}
	if f.Spans != nil {
		section(tagSpans, f.Spans.WriteBody)
	}
	if f.Prof != nil {
		section(tagProf, f.Prof.WriteBody)
	}
	return e.B
}

// Decode parses a file.
func Decode(b []byte) (*File, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("obs: bad magic (not a nova observability file)")
	}
	d := &trace.Dec{B: b[len(magic):]}
	f := &File{}
	d.JSON(&f.Header)
	if d.Err == nil && (f.NumCPUs < 1 || f.NumCPUs > 1<<16) {
		return nil, fmt.Errorf("obs: implausible CPU count %d", f.NumCPUs)
	}
	last := uint8(0)
	for d.Err == nil && len(d.B) > 0 {
		tag := d.U8()
		body := &trace.Dec{B: d.Bytes()}
		if d.Err != nil {
			break
		}
		if tag <= last {
			return nil, fmt.Errorf("obs: section %d out of order", tag)
		}
		last = tag
		switch tag {
		case tagTrace:
			f.Trace = trace.ReadBody(body, f.NumCPUs)
		case tagStat:
			f.Stat = stat.ReadBody(body)
		case tagSpans:
			f.Spans = span.ReadBody(body, f.NumCPUs)
		case tagProf:
			f.Prof = prof.ReadBody(body, f.NumCPUs)
		default:
			return nil, fmt.Errorf("obs: unknown section %d", tag)
		}
		if err := body.End(); err != nil {
			return nil, fmt.Errorf("obs: section %d: %w", tag, err)
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("obs: %w", d.Err)
	}
	return f, nil
}
