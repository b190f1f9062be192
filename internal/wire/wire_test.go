package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"thedb/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	b := AppendFrame(nil, OpCall, 42, payload)
	if len(b) != HeaderSize+len(payload) {
		t.Fatalf("encoded length = %d, want %d", len(b), HeaderSize+len(payload))
	}
	f, n, err := DecodeFrame(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if f.Op != OpCall || f.ID != 42 || f.Version != Version || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("decoded frame = %+v", f)
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good := AppendFrame(nil, OpResult, 1, []byte("x"))

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[2] = Version + 1
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: err = %v", err)
	}

	// A length field past the limit must fail before allocating.
	bad = append([]byte(nil), good...)
	bad[12], bad[13], bad[14], bad[15] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize: err = %v", err)
	}

	if _, _, err := DecodeFrame(good[:HeaderSize-1], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: err = %v", err)
	}
	if _, _, err := DecodeFrame(good[:len(good)-1], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short body: err = %v", err)
	}
}

func TestReaderStream(t *testing.T) {
	var b []byte
	b = AppendFrame(b, OpCall, 1, []byte("one"))
	b = AppendFrame(b, OpResult, 2, nil)
	b = AppendFrame(b, OpError, 3, []byte("three"))

	r := NewReader(bytes.NewReader(b), 0)
	for i, want := range []struct {
		op uint8
		id uint64
	}{{OpCall, 1}, {OpResult, 2}, {OpError, 3}} {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Op != want.op || f.ID != want.id {
			t.Fatalf("frame %d = %+v, want op=%d id=%d", i, f, want.op, want.id)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after stream: err = %v, want io.EOF", err)
	}

	// A partial trailing frame is a torn read, not a clean EOF.
	r = NewReader(bytes.NewReader(b[:len(b)-2]), 0)
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// splitReader hands out its chunks one Read at a time, the way a
// socket delivers a stream in pieces.
type splitReader struct{ chunks [][]byte }

func (r *splitReader) Read(p []byte) (int, error) {
	for len(r.chunks) > 0 && len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	r.chunks[0] = r.chunks[0][n:]
	return n, nil
}

// TestReaderInPlace drives the Reader's two paths — a frame returned
// where it lies in the buffer, and one larger than the buffer copied
// out — over a stream cut in two at every byte offset, headers and
// payloads alike: every cut yields the frames DecodeFrame yields, and
// Buffered is true exactly when the next frame has wholly arrived.
func TestReaderInPlace(t *testing.T) {
	big := make([]byte, readBuffer+100)
	for i := range big {
		big[i] = byte(i * 7)
	}
	frames := [][]byte{
		AppendCall(nil, 1, Call{Proc: "YCSBUpdate", Seq: 9, Args: []storage.Value{storage.Int(7), storage.Str("field")}}),
		AppendFrame(nil, OpResult, 2, nil),
		AppendFrame(nil, OpCall, 3, big),
		AppendError(nil, 4, RemoteError{Code: CodeShed, Backoff: time.Millisecond, Msg: "shed"}),
	}
	var stream []byte
	var ends []int // stream offset just past each frame
	for _, f := range frames {
		stream = append(stream, f...)
		ends = append(ends, len(stream))
	}
	check := func(cut int) {
		r := NewReader(&splitReader{chunks: [][]byte{stream[:cut], stream[cut:]}}, len(big))
		for i, want := range frames {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("cut %d: frame %d: %v", cut, i, err)
			}
			ref, _, err := DecodeFrame(want, len(big))
			if err != nil {
				t.Fatal(err)
			}
			if got.Op != ref.Op || got.ID != ref.ID || !bytes.Equal(got.Payload, ref.Payload) {
				t.Fatalf("cut %d: frame %d = op %d id %d (%d bytes), want op %d id %d (%d bytes)",
					cut, i, got.Op, got.ID, len(got.Payload), ref.Op, ref.ID, len(ref.Payload))
			}
			if i+1 == len(frames) {
				break
			}
			// The next frame is buffered when the read that completed this
			// one brought all of it along; a frame larger than the buffer
			// never is, and the one after it only once the copy has drained
			// the buffer's earlier bytes.
			if next := ends[i+1]; len(frames[i+1]) <= readBuffer {
				arrived := cut >= next || ends[i] > cut
				if i == 2 {
					continue // after the oversized frame the buffer's fill is the reader's business
				}
				if got := r.Buffered(); got != arrived {
					t.Fatalf("cut %d: after frame %d: Buffered = %v, want %v", cut, i, got, arrived)
				}
			} else if r.Buffered() {
				t.Fatalf("cut %d: Buffered reports a frame larger than the buffer", cut)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("cut %d: after stream: err = %v, want io.EOF", cut, err)
		}
	}
	// Every offset through the small frames and the oversized frame's
	// header, then every offset of its tail and the frame behind it; the
	// oversized payload's middle is sampled.
	for cut := 1; cut < len(stream); cut++ {
		if cut > ends[1]+2*HeaderSize && cut < ends[2]-2*HeaderSize && cut%997 != 0 {
			continue
		}
		check(cut)
	}
}

func TestReaderEnforcesLimit(t *testing.T) {
	big := AppendFrame(nil, OpCall, 1, make([]byte, 100))
	r := NewReader(bytes.NewReader(big), 50)
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	hb := AppendHello(nil, Hello{Client: "thedb-client/1", Session: 0x0102030405060708})
	f, _, err := DecodeFrame(hb, 0)
	if err != nil || f.Op != OpHello || f.ID != 0 {
		t.Fatalf("hello frame = %+v, err = %v", f, err)
	}
	h, err := DecodeHello(f.Payload)
	if err != nil || h.Client != "thedb-client/1" || h.Session != 0x0102030405060708 {
		t.Fatalf("hello = %+v, err = %v", h, err)
	}

	wb := AppendWelcome(nil, Welcome{
		MaxFrame: 1 << 20, MaxInFlight: 64, Server: "thedb/1",
		Session: 0x0102030405060708, Incarnation: 0xfeedface12345678, DedupWindow: 256,
	})
	f, _, err = DecodeFrame(wb, 0)
	if err != nil || f.Op != OpWelcome {
		t.Fatalf("welcome frame = %+v, err = %v", f, err)
	}
	w, err := DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxFrame != 1<<20 || w.MaxInFlight != 64 || w.Server != "thedb/1" {
		t.Fatalf("welcome = %+v", w)
	}
	if w.Session != 0x0102030405060708 || w.Incarnation != 0xfeedface12345678 || w.DedupWindow != 256 {
		t.Fatalf("welcome session fields = %+v", w)
	}
}

func TestCallRoundTrip(t *testing.T) {
	calls := []Call{
		{Proc: "YCSBRead", Args: []storage.Value{storage.Int(7)}},
		{Proc: "P", Args: []storage.Value{
			storage.Int(-1), storage.Float(3.25), storage.Str("s"), storage.Null,
			storage.Float(math.Inf(-1)), storage.Int(math.MaxInt64), storage.Str(""),
		}},
		{Proc: "NoArgs"},
		{Proc: "KVInc", Seq: 42, BudgetUS: 1_500_000, Args: []storage.Value{storage.Int(9)}},
		{Proc: "MaxSeq", Seq: math.MaxUint64},
	}
	for _, c := range calls {
		b := AppendCall(nil, 9, c)
		f, _, err := DecodeFrame(b, 0)
		if err != nil || f.Op != OpCall || f.ID != 9 {
			t.Fatalf("%q: frame = %+v, err = %v", c.Proc, f, err)
		}
		got, err := DecodeCall(f.Payload)
		if err != nil {
			t.Fatalf("%q: %v", c.Proc, err)
		}
		if got.Proc != c.Proc || got.Seq != c.Seq || got.BudgetUS != c.BudgetUS || len(got.Args) != len(c.Args) {
			t.Fatalf("%q: decoded %+v", c.Proc, got)
		}
		for i := range c.Args {
			if !got.Args[i].Equal(c.Args[i]) {
				t.Fatalf("%q arg %d: got %v, want %v", c.Proc, i, got.Args[i], c.Args[i])
			}
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	outs := []Output{
		{Name: "balance", Vals: []storage.Value{storage.Int(1234)}},
		{Name: "rows", List: true, Vals: []storage.Value{storage.Str("a"), storage.Str("b")}},
		{Name: "empty", List: true},
		{Name: "pi", Vals: []storage.Value{storage.Float(3.14159)}},
	}
	b := AppendResult(nil, 11, outs)
	f, _, err := DecodeFrame(b, 0)
	if err != nil || f.Op != OpResult || f.ID != 11 {
		t.Fatalf("frame = %+v, err = %v", f, err)
	}
	got, err := DecodeResult(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !outputsEqual(got, outs) {
		t.Fatalf("decoded %+v, want %+v", got, outs)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	es := []RemoteError{
		{Code: CodeContended, Backoff: 2 * time.Millisecond, Msg: "retry budget spent"},
		{Code: CodeShed, Backoff: 500 * time.Microsecond, Msg: "in-flight bound hit"},
		{Code: CodeAbort, Msg: "insufficient funds"},
		{Code: CodeDraining, Backoff: 10 * time.Millisecond, Msg: "server draining"},
		{Code: CodeDeadline, Msg: "budget exhausted before execution"},
	}
	for _, e := range es {
		b := AppendError(nil, 13, e)
		f, _, err := DecodeFrame(b, 0)
		if err != nil || f.Op != OpError || f.ID != 13 {
			t.Fatalf("frame = %+v, err = %v", f, err)
		}
		got, err := DecodeError(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("decoded %+v, want %+v", got, e)
		}
		wantRetry := e.Code == CodeContended || e.Code == CodeShed || e.Code == CodeDraining
		if got.Retryable() != wantRetry {
			t.Fatalf("%s: Retryable = %v, want %v", CodeName(e.Code), got.Retryable(), wantRetry)
		}
	}
}

func TestDecodeCallRejectsHostileCounts(t *testing.T) {
	// Seq, budget, trace id and flags, all zero, then the name "P": a
	// well-formed prefix, so each case below reaches the field it names.
	prefix := []byte{0, 0, 0, 0, 1, 'P'}
	if c, err := DecodeCall(append(prefix, 0)); err != nil || c.Proc != "P" || len(c.Args) != 0 {
		t.Fatalf("well-formed prefix: %+v, %v", c, err)
	}
	cases := map[string][]byte{
		// A declared argument count far beyond the payload must fail
		// without allocating a huge slice.
		"argc ~2^63": append(prefix, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		// Nine bytes declaring 65,535 arguments once sized a 1 MiB
		// argument array that the reused Call kept.
		"argc 65535, no arguments": append(prefix, 0xff, 0xff, 0x03),
		// A string length beyond the payload.
		"name length 65535, no body": {0, 0, 0, 0, 0xff, 0xff, 0x03},
		// A non-minimal varint: the sequence number 0 written in two bytes.
		"non-minimal seq": {0x80, 0x00, 0, 0, 0, 1, 'P', 0},
	}
	for name, p := range cases {
		var c Call
		if _, err := DecodeCallInto(&c, p); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
		if cap(c.Args) > len(p) {
			t.Errorf("%s: the reused Call kept %d argument slots for a %d-byte payload", name, cap(c.Args), len(p))
		}
	}
}

// TestGoldenCallAndResultBytes pins one CALL and one RESULT frame
// carrying every value kind to exact bytes: neither the in-memory row
// nor a change to storage's value codec may move the wire unnoticed
// (a change that means to bumps Version).
func TestGoldenCallAndResultBytes(t *testing.T) {
	const wantCall, wantResult = "b17d050305000000000000002400000009dc0bef9baf05010350617905015302808080808080808240030668c3a96c6c6f030000", "b17d05040500000000000000230000000203726f770105015302808080808080808240030668c3a96c6c6f030000016e000153"
	vals := []storage.Value{storage.Int(-42), storage.Float(2.5), storage.Str("héllo"), storage.Str(""), storage.Null}
	call := AppendCall(nil, 5, Call{Proc: "Pay", Args: vals, Seq: 9, BudgetUS: 1500, TraceID: 0xabcdef, ReadOnly: true})
	if got := hex.EncodeToString(call); got != wantCall {
		t.Fatalf("CALL bytes changed:\n got %s\nwant %s", got, wantCall)
	}
	result := AppendResult(nil, 5, []Output{{Name: "row", List: true, Vals: vals}, {Name: "n", Vals: vals[:1]}})
	if got := hex.EncodeToString(result); got != wantResult {
		t.Fatalf("RESULT bytes changed:\n got %s\nwant %s", got, wantResult)
	}
}

// TestEncodersAllocateNothing pins the in-place encoders: a call or a
// result written into a buffer that already has room costs no
// allocation — no temporary payload, no second copy into a frame.
func TestEncodersAllocateNothing(t *testing.T) {
	call := Call{Proc: "Pay", Seq: 9, BudgetUS: 1500, TraceID: 0xabcdef,
		Args: []storage.Value{storage.Int(-42), storage.Float(2.5), storage.Str("héllo"), storage.Null}}
	outs := []Output{{Name: "row", List: true, Vals: call.Args}, {Name: "n", Vals: call.Args[:1]}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = AppendCall(buf[:0], 5, call) }); n != 0 {
		t.Errorf("AppendCall into a reused buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendResult(buf[:0], 5, outs) }); n != 0 {
		t.Errorf("AppendResult into a reused buffer: %v allocs, want 0", n)
	}
	// Decoding a result costs three allocations — the outputs, one
	// backing array of values, one copy of the payload — plus one more
	// for the backing array to take in a value list.
	f, _, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResult(f.Payload); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("DecodeResult: %v allocs, want <= 4", n)
	}
}
