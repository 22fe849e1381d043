package span

import "nova/internal/trace"

// Data is the span section of an observability file: the span rings
// (the tracer's ring codec; A3 is always zero) and the whole-run
// counters, which survive ring wraps.
type Data struct {
	trace.Rings
	Opened uint64
	Closed uint64
}

// Data snapshots the recorder; nil when span recording is off.
func (r *Recorder) Data() *Data {
	if r == nil {
		return nil
	}
	return &Data{Rings: trace.SnapshotRings(r.rings), Opened: r.Opened, Closed: r.Closed}
}

// WriteBody appends the span section body.
func (d *Data) WriteBody(e *trace.Enc) {
	e.U64(d.Opened)
	e.U64(d.Closed)
	d.Rings.WriteBody(e)
}

// ReadBody reads a span section body of cpus rings.
func ReadBody(dec *trace.Dec, cpus int) *Data {
	d := &Data{Opened: dec.U64(), Closed: dec.U64()}
	d.Rings = trace.ReadRings(dec, cpus)
	return d
}
