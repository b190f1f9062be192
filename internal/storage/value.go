// Package storage implements THEDB's in-memory record store: typed
// tuples, records carrying a packed atomic metadata word
// (lock | visibility | commit timestamp), schemas, tables, and a
// reference-counted garbage collector for deleted records.
//
// The layout follows §2 and §4 of "Transaction Healing: Scaling
// Optimistic Concurrency Control on Multicores" (SIGMOD 2016): each
// record keeps (1) the commit timestamp of its last writer, (2) a
// visibility bit, and (3) a lock bit. All three live in one atomic
// 64-bit word so that optimistic readers observe lock state and
// timestamp together, and tuples are immutable slices swapped by
// atomic pointer so unprotected reads are memory-safe.
package storage

import (
	"math"
	"strconv"
	"unsafe"
)

// ValueKind discriminates the runtime type of a column Value.
type ValueKind uint8

// Supported column kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
)

// Value is a single column value: a two-word immutable sum type. The
// pointer word is the discriminator — nil for null, the address of a
// package sentinel for ints and floats, and otherwise a string's data
// pointer — and the integer word holds the number (float bits for
// floats) or the string's length. Values are copied freely; neither a
// Value nor the string bytes it points at may be written once built.
//
// The zero-size func array makes == on a Value a compile error: two
// strings with the same content need not share a data pointer, so
// equality must go through Equal.
type Value struct {
	_ [0]func()
	p *byte
	n int64
}

// Kind sentinels. emptyTag stands in for the data pointer of "",
// which unsafe.StringData leaves unspecified (it may be nil, and nil
// is null).
var intTag, floatTag, emptyTag byte

// Int returns an integer Value.
func Int(v int64) Value { return Value{p: &intTag, n: v} }

// Float returns a floating-point Value. The bit pattern is stored in
// the numeric slot.
func Float(v float64) Value { return Value{p: &floatTag, n: int64(math.Float64bits(v))} }

// Str returns a string Value. The string's bytes are shared, not
// copied.
func Str(v string) Value {
	if len(v) == 0 {
		return Value{p: &emptyTag}
	}
	return Value{p: unsafe.StringData(v), n: int64(len(v))}
}

// Null is the zero Value.
var Null = Value{}

// Kind reports the value's runtime kind.
func (v Value) Kind() ValueKind {
	switch v.p {
	case nil:
		return KindNull
	case &intTag:
		return KindInt
	case &floatTag:
		return KindFloat
	}
	return KindString
}

// IsNull reports whether the value is the SQL-style null.
func (v Value) IsNull() bool { return v.p == nil }

// Int returns the integer payload, truncating floats; null and
// strings yield 0.
func (v Value) Int() int64 {
	switch v.p {
	case &intTag:
		return v.n
	case &floatTag:
		return int64(math.Float64frombits(uint64(v.n)))
	}
	return 0
}

// Float returns the floating-point payload, coercing integers; null
// and strings yield 0.
func (v Value) Float() float64 {
	switch v.p {
	case &floatTag:
		return math.Float64frombits(uint64(v.n))
	case &intTag:
		return float64(v.n)
	}
	return 0
}

// Str returns the string payload ("" for non-strings).
func (v Value) Str() string {
	if v.Kind() != KindString {
		return ""
	}
	return unsafe.String(v.p, v.n)
}

// Equal reports deep equality of two values: same kind and same
// number, or same string content.
func (v Value) Equal(o Value) bool {
	if v.n != o.n {
		return false // different number, or different string length
	}
	return v.p == o.p ||
		v.Kind() == KindString && o.Kind() == KindString && v.Str() == o.Str()
}

// String renders the value for debugging and logging.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	default:
		return v.Str()
	}
}

// Tuple is one row: a fixed-width slice of column values. Tuples are
// immutable once installed in a Record; writers build a fresh copy.
type Tuple []Value

// Clone returns a copy of the tuple that the caller may mutate.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports column-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}
