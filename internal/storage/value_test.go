package storage

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestValueKinds pins the accessor contract of every kind, including
// the corners the two-word layout could get wrong: the numeric word of
// a string holds its length and must not leak through Int/Float, and
// the empty string has no data pointer yet is not null.
func TestValueKinds(t *testing.T) {
	cases := []struct {
		name   string
		v      Value
		kind   ValueKind
		i      int64
		f      float64
		s      string
		render string
	}{
		{"null", Null, KindNull, 0, 0, "", "NULL"},
		{"zero value", Value{}, KindNull, 0, 0, "", "NULL"},
		{"int", Int(-7), KindInt, -7, -7, "", "-7"},
		{"int zero", Int(0), KindInt, 0, 0, "", "0"},
		{"float", Float(2.75), KindFloat, 2, 2.75, "", "2.75"},
		{"string", Str("hello"), KindString, 0, 0, "hello", "hello"},
		{"empty string", Str(""), KindString, 0, 0, "", ""},
	}
	for _, c := range cases {
		if got := c.v.Kind(); got != c.kind {
			t.Errorf("%s: Kind = %d, want %d", c.name, got, c.kind)
		}
		if got := c.v.IsNull(); got != (c.kind == KindNull) {
			t.Errorf("%s: IsNull = %v", c.name, got)
		}
		if got := c.v.Int(); got != c.i {
			t.Errorf("%s: Int = %d, want %d", c.name, got, c.i)
		}
		if got := c.v.Float(); got != c.f {
			t.Errorf("%s: Float = %g, want %g", c.name, got, c.f)
		}
		if got := c.v.Str(); got != c.s {
			t.Errorf("%s: Str = %q, want %q", c.name, got, c.s)
		}
		if got := c.v.String(); got != c.render {
			t.Errorf("%s: String = %q, want %q", c.name, got, c.render)
		}
	}
}

// TestValueEqual: equality is by kind and content, never by where a
// string's bytes happen to live.
func TestValueEqual(t *testing.T) {
	a, b := strings.Repeat("ab", 3), strings.Repeat("ab", 3)
	if unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("test needs two backing arrays")
	}
	vals := []Value{Null, Int(0), Int(6), Float(0), Float(6), Str(""), Str(a), Str("ababaX")}
	for i, x := range vals {
		for j, y := range vals {
			if got := x.Equal(y); got != (i == j) {
				t.Errorf("%v.Equal(%v) = %v", x, y, got)
			}
		}
	}
	if !Str(a).Equal(Str(b)) {
		t.Error("equal strings with different backing arrays compare unequal")
	}
	if !(Tuple{Int(1), Str(a)}).Equal(Tuple{Int(1), Str(b)}) {
		t.Error("Tuple.Equal does not compare strings by content")
	}
	nan := Float(math.NaN())
	if !nan.Equal(nan) {
		t.Error("a float must equal itself bit for bit")
	}
}

// TestValueCodecRoundTrip: each kind survives AppendValue and
// Decoder.Value, and the bytes are the documented kind byte + payload.
func TestValueCodecRoundTrip(t *testing.T) {
	cases := []struct {
		v    Value
		wire []byte
	}{
		{Null, []byte{0}},
		{Int(-3), []byte{1, 5}},
		{Float(1), []byte{2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xf8, 0x3f}},
		{Str("ab"), []byte{3, 2, 'a', 'b'}},
		{Str(""), []byte{3, 0}},
	}
	for _, c := range cases {
		b := AppendValue(nil, c.v)
		if !bytes.Equal(b, c.wire) {
			t.Errorf("%v encodes to %x, want %x", c.v, b, c.wire)
		}
		got, err := decodeValue(b)
		if err != nil || got.Kind() != c.v.Kind() || !got.Equal(c.v) {
			t.Errorf("%v decodes to %v (kind %d, err %v)", c.v, got, got.Kind(), err)
		}
	}
}

// TestDecoderRefusesHostileBytes: a count above the bytes left, a
// non-minimal varint and a trailing byte are errors; the first error
// sticks and every later read returns a zero value.
func TestDecoderRefusesHostileBytes(t *testing.T) {
	cases := map[string][]byte{
		"count beyond the slice": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'a'},
		"non-minimal varint":     {0x81, 0x00},
		"overlong varint":        bytes.Repeat([]byte{0xff}, 11),
		"truncated":              {},
		"trailing byte":          {0, 'a'},
	}
	for name, b := range cases {
		d := NewDecoder(b)
		if n := d.Count(); d.Done() == nil {
			t.Errorf("%s: decoded count %d without an error", name, n)
		}
		if v, s := d.Uvarint(), d.Str(); v != 0 || s != "" || d.Err() == nil {
			t.Errorf("%s: reads after an error returned (%d, %q, %v)", name, v, s, d.Err())
		}
	}
}

// TestDecoderVectorsAndSharedStrings: a counted vector round-trips
// through AppendValues and Values, growing dst keeps its spare room,
// and Share cuts every string from one copy of the input.
func TestDecoderVectorsAndSharedStrings(t *testing.T) {
	vals := []Value{Int(-3), Str("ab"), Null, Float(1), Str("cd")}
	b := AppendString(AppendValues(nil, vals), "tail")
	for _, share := range []bool{false, true} {
		d := NewDecoder(b)
		if share {
			d.Share()
		}
		got := d.Values(make([]Value, 1, 3)) // one value held, room for two more
		tail := d.Str()
		if err := d.Done(); err != nil || !Tuple(got[1:]).Equal(vals) || tail != "tail" {
			t.Fatalf("share=%v: decoded %v, %q (err %v)", share, got, tail, err)
		}
		if cap(got)-len(got) < 2 {
			t.Errorf("share=%v: growing dst kept %d spare slots, want >= 2", share, cap(got)-len(got))
		}
		// Shared strings sit in one copy as far apart as in the input.
		apart := uintptr(unsafe.Pointer(unsafe.StringData(got[5].Str()))) - uintptr(unsafe.Pointer(unsafe.StringData(got[2].Str())))
		if want := uintptr(bytes.Index(b, []byte("cd")) - bytes.Index(b, []byte("ab"))); share && apart != want {
			t.Errorf("shared strings %d bytes apart, want %d", apart, want)
		}
	}
}

// decodeValue decodes b as exactly one Value.
func decodeValue(b []byte) (Value, error) {
	d := NewDecoder(b)
	v := d.Value()
	return v, d.Done()
}

// FuzzValueCodec: hostile bytes never panic the decoder, and whatever
// decodes re-encodes to a value equal to itself.
func FuzzValueCodec(f *testing.F) {
	for _, v := range []Value{Null, Int(-3), Float(1), Str("ab"), Str("")} {
		f.Add(AppendValue(nil, v))
	}
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // length 2^64-1
	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder(b)
		v := d.Value()
		if d.Err() != nil {
			return
		}
		v2, err := decodeValue(AppendValue(nil, v))
		if err != nil || v2.Kind() != v.Kind() || !v2.Equal(v) {
			t.Fatalf("%v re-decodes to %v (err %v)", v, v2, err)
		}
	})
}

// TestRowLayoutBudget pins the bytes-per-row budget of DESIGN.md §2.2
// so it cannot drift back: a 16-byte Value, a Record within one cache
// line, no heap box per installed image, one shared row for dummies.
// It also pins the record's synchronization words allocation-free,
// including those no session path reaches: Record.Meta, Timestamp,
// Visible, Locked, TryLock, Lock, Unlock, SetTimestamp, SetVisible,
// Tuple, StableSnapshot and SetTuple, and the 2PL RWLock's TryRLock,
// TryUpgrade, RUnlock, TryWLock and WUnlock.
func TestRowLayoutBudget(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("sizeof(Value) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(Record{}); got > 64 {
		t.Errorf("sizeof(Record) = %d, want <= 64", got)
	}
	img := Tuple{Int(1), Str("x")}
	rec := NewRecord(0, 1, img, 0, true)
	next := Tuple{Int(2), Str("y")}
	if n := testing.AllocsPerRun(100, func() { rec.SetTuple(next) }); n != 0 {
		t.Errorf("SetTuple allocates %v times per call", n)
	}
	if got := rec.Tuple(); !got.Equal(next) || unsafe.SliceData(got) != unsafe.SliceData(next) {
		t.Errorf("Tuple() = %v, not the installed image", got)
	}
	rw := rec.RW()
	words := func() {
		if !rec.TryLock() || !rec.Locked() || rec.TryLock() {
			t.Fatal("record lock bit misbehaves")
		}
		rec.SetVisible(false)
		rec.SetVisible(true)
		rec.SetTimestamp(rec.Timestamp() + 1)
		rec.Unlock()
		rec.Lock()
		rec.Unlock()
		if ts, _, vis := rec.Meta(); !vis || ts != rec.Timestamp() || !rec.Visible() {
			t.Fatal("record meta word misreads")
		}
		if _, img, vis := rec.StableSnapshot(); !vis || len(img) != 2 || len(rec.Tuple()) != 2 {
			t.Fatal("StableSnapshot misreads")
		}
		if !rw.TryRLock() || !rw.TryUpgrade() || rw.TryRLock() {
			t.Fatal("RWLock shared → exclusive upgrade misbehaves")
		}
		rw.WUnlock()
		if !rw.TryRLock() || rw.TryWLock() {
			t.Fatal("RWLock granted a writer beside a reader")
		}
		rw.RUnlock()
		if !rw.TryWLock() {
			t.Fatal("RWLock refused a writer on a free lock")
		}
		rw.WUnlock()
	}
	if n := testing.AllocsPerRun(100, words); n != 0 {
		t.Errorf("record and RWLock words allocate %v times per round", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetTuple accepted an image of another width")
			}
		}()
		rec.SetTuple(Tuple{Int(3)})
	}()
	tab := NewTable(0, Schema{Name: "t", Columns: make([]ColumnDef, 3)})
	d1, _ := tab.GetOrCreateDummy(10)
	d2, _ := tab.GetOrCreateDummy(11)
	if len(d1.Tuple()) != 3 || unsafe.SliceData(d1.Tuple()) != unsafe.SliceData(d2.Tuple()) {
		t.Error("dummy records do not share the table's one all-null row")
	}
}
