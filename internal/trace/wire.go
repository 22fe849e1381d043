package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// The section codec of the observability file (internal/obs). Each sink
// package writes and reads its own section body with Enc and Dec; the
// fixed-size fields are little-endian, so a body is deterministic
// whenever the sink's data is.

// Enc appends the fields of one section body.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U32 appends a 32-bit word.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a 64-bit word.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// Bool appends a flag as one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes appends b with a 32-bit length prefix.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// JSON appends the JSON encoding of v, length-prefixed. v is a struct
// of integers, strings and slices, whose encoding cannot fail.
func (e *Enc) JSON(v any) {
	b, _ := json.Marshal(v)
	e.Bytes(b)
}

// Dec reads back what Enc wrote. The first malformed or missing field
// sets Err and every later read returns a zero value, so a decoder
// checks Err once, after its last read. Dec accepts only what Enc
// produces: a decoded body re-encodes to the same bytes.
type Dec struct {
	B   []byte
	Err error
}

// Fail records the first decoding error.
func (d *Dec) Fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(format, args...)
	}
	d.B = nil
}

func (d *Dec) take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || len(d.B) < n {
		d.Fail("truncated section")
		return nil
	}
	b := d.B[:n]
	d.B = d.B[n:]
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a 32-bit word.
func (d *Dec) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a 64-bit word.
func (d *Dec) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bool reads a flag; a byte other than 0 or 1 is an error.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("bad flag byte %#x", v)
	}
	return v == 1
}

// Count reads a 32-bit record count and checks that the rest of the
// body can hold that many records of at least minSize bytes each, so a
// caller may allocate count records: allocation stays bounded by the
// input's length whatever the count claims.
func (d *Dec) Count(minSize int) int {
	n := int(d.U32())
	if d.Err == nil && n > len(d.B)/minSize {
		d.Fail("count %d exceeds the %d bytes left", n, len(d.B))
		return 0
	}
	return n
}

// Raw reads n bytes.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Bytes reads a length-prefixed byte string.
func (d *Dec) Bytes() []byte { return d.take(int(d.U32())) }

// JSON reads a length-prefixed JSON value into v. Only v's canonical
// encoding (what Enc.JSON writes for the decoded value) is accepted.
func (d *Dec) JSON(v any) {
	b := d.Bytes()
	if d.Err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		d.Fail("%v", err)
		return
	}
	if c, _ := json.Marshal(v); !bytes.Equal(c, b) {
		d.Fail("non-canonical JSON")
	}
}

// End reports the first error, or an error if bytes are left over.
func (d *Dec) End() error {
	if d.Err == nil && len(d.B) != 0 {
		d.Fail("%d trailing bytes", len(d.B))
	}
	return d.Err
}
