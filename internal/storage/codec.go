package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire codec for Values, shared by the WAL entry format and the
// checkpoint slot format: one kind byte followed by the payload
// (varint for ints, uvarint float bits for floats, length-prefixed
// bytes for strings). The encoding is stable — both on-disk formats
// depend on it.

// ByteReader is what the value decoder needs: checkpoint slots read
// from a bytes.Reader, WAL frame payloads too. Len is the bytes left,
// which bounds a string's length prefix before anything is allocated.
type ByteReader interface {
	io.Reader
	io.ByteReader
	Len() int
}

// AppendValue appends v's wire encoding to b.
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

// ReadValue decodes one Value from r.
func ReadValue(r ByteReader) (Value, error) {
	k, err := r.ReadByte()
	if err != nil {
		return Null, err
	}
	switch ValueKind(k) {
	case KindNull:
		return Null, nil
	case KindInt:
		n, err := binary.ReadVarint(r)
		return Int(n), err
	case KindFloat:
		n, err := binary.ReadUvarint(r)
		return Float(math.Float64frombits(n)), err
	case KindString:
		s, err := ReadString(r)
		return Str(s), err
	default:
		return Null, fmt.Errorf("storage: bad value kind %d", k)
	}
}

// ReadString decodes one length-prefixed string from r.
func ReadString(r ByteReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", io.ErrUnexpectedEOF
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
