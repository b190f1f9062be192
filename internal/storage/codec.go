package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Disk codec for Values, shared by the WAL entry format and the
// checkpoint slot format: one kind byte followed by the payload
// (varint for ints, uvarint float bits for floats, length-prefixed
// bytes for strings). The encoding is stable — both on-disk formats
// depend on it.

// AppendValue appends v's disk encoding to b.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case KindNull:
	case KindInt:
		b = binary.AppendVarint(b, v.Int())
	case KindFloat:
		b = binary.AppendUvarint(b, math.Float64bits(v.Float()))
	case KindString:
		b = AppendString(b, v.Str())
	}
	return b
}

// AppendString appends a length-prefixed string to b.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder reads what the Append functions and binary.AppendUvarint
// wrote, from one byte slice (a frame payload). The first error
// sticks: every later read returns a zero value, so a caller reads a
// whole record and checks Err or Done once. Counts and lengths are
// checked against the bytes left before anything is allocated, so a
// hostile count is an error, not an allocation request. Varints must
// be minimally encoded, as the encoders write them: a payload that
// decodes re-encodes to the same bytes.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first error met, or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the first error met, or an error if bytes are left.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Errorf("storage: %d trailing bytes", len(d.b)))
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(io.ErrUnexpectedEOF)
	case n < 0 || n > 1 && d.b[n-1] == 0:
		d.fail(errors.New("storage: varint overflows 64 bits or is not minimally encoded"))
	default:
		d.b = d.b[n:]
		return x
	}
	return 0
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count. Every element takes at least one
// byte, so a count above the bytes left is an error.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail(fmt.Errorf("storage: count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Value reads one Value.
func (d *Decoder) Value() Value {
	switch k := ValueKind(d.Byte()); k {
	case KindNull:
		return Null
	case KindInt:
		return Int(d.Varint())
	case KindFloat:
		return Float(math.Float64frombits(d.Uvarint()))
	case KindString:
		return Str(d.Str())
	default:
		d.fail(fmt.Errorf("storage: bad value kind %d", k))
		return Null
	}
}
