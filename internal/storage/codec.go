package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The value codec of the WAL entry format, the checkpoint slot format
// and the wire protocol's payloads: one kind byte followed by the
// payload (varint for ints, uvarint float bits for floats,
// length-prefixed bytes for strings). The encoding is stable — both
// on-disk formats depend on it.

// AppendValue appends v's encoding to b.
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

// AppendValues appends a counted value vector: its count, then each value.
func AppendValues(b []byte, vals []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = AppendValue(b, v)
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
//
// Reads advance an offset and never re-slice b, so they store no
// pointer: a Decoder on the caller's stack costs no write barrier.
type Decoder struct {
	b     []byte
	off   int // bytes consumed
	err   error
	share bool   // set by Share
	s     string // Share's one copy of b
}

// NewDecoder returns a Decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first error met, or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the first error met, or an error if bytes are left.
func (d *Decoder) Done() error {
	if left := len(d.b) - d.off; d.err == nil && left > 0 {
		d.fail(fmt.Errorf("storage: %d trailing bytes", left))
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.b)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.off == len(d.b) {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	x, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.fail(io.ErrUnexpectedEOF)
	case n < 0 || n > 1 && d.b[d.off+n-1] == 0:
		d.fail(errors.New("storage: varint overflows 64 bits or is not minimally encoded"))
	default:
		d.off += n
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
	if left := len(d.b) - d.off; n > uint64(left) {
		d.fail(fmt.Errorf("storage: count %d exceeds the %d bytes left", n, left))
		return 0
	}
	return int(n)
}

// Share makes every later Str cut its string from one copy of the
// input, made at the first non-empty string: the strings cost one
// allocation together (else one each), and each keeps the copy alive.
func (d *Decoder) Share() { d.share = true }

// Bytes reads a length-prefixed body, aliasing the input.
func (d *Decoder) Bytes() []byte {
	n := d.Count()
	d.off += n
	return d.b[d.off-n : d.off : d.off]
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	body := d.Bytes()
	if !d.share || len(body) == 0 {
		return string(body)
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	return d.s[d.off-len(body) : d.off]
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

// Values reads a counted value vector and appends it to dst. When dst
// must grow, the new array keeps the spare room dst had, so a caller
// that sized dst for values still to come keeps that room.
func (d *Decoder) Values(dst []Value) []Value {
	n := d.Count()
	if n > cap(dst)-len(dst) {
		dst = append(make([]Value, 0, cap(dst)+n), dst...)
	}
	for range n {
		dst = append(dst, d.Value())
	}
	return dst
}
