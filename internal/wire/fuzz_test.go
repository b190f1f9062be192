package wire

import (
	"bytes"
	"testing"
	"time"

	"thedb/internal/storage"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame and message
// decoders. Invariants:
//
//  1. no input panics or drives an allocation past the frame limit
//     (hostile length fields must fail before allocating);
//  2. a successfully decoded frame re-encodes to exactly the consumed
//     input prefix (frame-level identity);
//  3. a successfully decoded message re-encodes to exactly its payload
//     (message-level identity: varints must be minimal, flags known,
//     and no byte may trail the message);
//  4. the streaming Reader, which decodes a frame where it lies in its
//     buffer, accepts exactly the inputs DecodeFrame accepts and yields
//     the same frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	f.Add(AppendHello(nil, Hello{Client: "fuzz-client"}))
	f.Add(AppendHello(nil, Hello{Client: "rejoin", Session: 0xdeadbeef00000007}))
	f.Add(AppendWelcome(nil, Welcome{MaxFrame: DefaultMaxFrame, MaxInFlight: 64, Server: "fuzz-server"}))
	f.Add(AppendWelcome(nil, Welcome{
		MaxFrame: 1 << 16, MaxInFlight: 8, Server: "fuzz-server/2",
		Session: 0xdeadbeef00000007, Incarnation: 0x1122334455667788, DedupWindow: 256,
	}))
	f.Add(AppendCall(nil, 7, Call{Proc: "YCSBRead", Args: []storage.Value{storage.Int(42)}}))
	f.Add(AppendCall(nil, 8, Call{Proc: "Mixed", Args: []storage.Value{
		storage.Null, storage.Int(-5), storage.Float(2.5), storage.Str("str"),
	}}))
	// Exactly-once header fields: op sequence + deadline budget.
	f.Add(AppendCall(nil, 12, Call{Proc: "KVInc", Seq: 41, BudgetUS: 250_000,
		Args: []storage.Value{storage.Int(3), storage.Int(-7)}}))
	f.Add(AppendCall(nil, 13, Call{Proc: "Edge", Seq: ^uint64(0), BudgetUS: 1}))
	// Trace-context field (version 3): client-minted, max, and the
	// untraced zero that the server replaces at admission.
	f.Add(AppendCall(nil, 15, Call{Proc: "KVGet", Seq: 7, TraceID: 0x4f2ec1a900000001,
		Args: []storage.Value{storage.Int(9)}}))
	f.Add(AppendCall(nil, 16, Call{Proc: "Traced", Seq: 8, BudgetUS: 1_000, TraceID: ^uint64(0)}))
	f.Add(AppendCall(nil, 17, Call{Proc: "Untraced", TraceID: 0}))
	// Flags word (version 4): snapshot-read calls with and without the
	// other header fields populated.
	f.Add(AppendCall(nil, 18, Call{Proc: "SnapScan", ReadOnly: true,
		Args: []storage.Value{storage.Int(0), storage.Int(999)}}))
	f.Add(AppendCall(nil, 19, Call{Proc: "SnapTraced", ReadOnly: true, Seq: 9,
		BudgetUS: 2_000, TraceID: 0x4f2ec1a900000002}))
	f.Add(AppendResult(nil, 9, []Output{
		{Name: "v", Vals: []storage.Value{storage.Int(1)}},
		{Name: "rows", List: true, Vals: []storage.Value{storage.Str("a"), storage.Str("b")}},
	}))
	f.Add(AppendError(nil, 10, RemoteError{Code: CodeShed, Backoff: time.Millisecond, Msg: "shed"}))
	f.Add(AppendError(nil, 14, RemoteError{Code: CodeDeadline, Msg: "budget exhausted"}))
	// Truncations and corruptions of a valid frame.
	valid := AppendCall(nil, 11, Call{Proc: "P", Args: []storage.Value{storage.Str("x")}})
	f.Add(valid[:HeaderSize])
	f.Add(valid[:len(valid)-1])
	corrupt := append([]byte(nil), valid...)
	corrupt[12] = 0xff
	f.Add(corrupt)
	// A non-minimal varint (sequence number 0 in two bytes): refused.
	f.Add(AppendFrame(nil, OpCall, 20, []byte{0x80, 0x00, 0, 0, 0, 1, 'P', 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data, DefaultMaxFrame)
		streamed, serr := NewReader(bytes.NewReader(data), DefaultMaxFrame).Next()
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeFrame err %v, Reader.Next err %v", err, serr)
		}
		if err != nil {
			return
		}
		if streamed.Op != fr.Op || streamed.ID != fr.ID || !bytes.Equal(streamed.Payload, fr.Payload) {
			t.Fatalf("Reader.Next = %+v, DecodeFrame = %+v", streamed, fr)
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Frame-level identity: canonical re-encoding reproduces the
		// consumed prefix bit for bit (the header has no redundant
		// representations and the payload is copied verbatim).
		if re := AppendFrame(nil, fr.Op, fr.ID, fr.Payload); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoded frame differs from input prefix:\n got %x\nwant %x", re, data[:n])
		}
		var re []byte
		switch fr.Op {
		case OpHello:
			h, err := DecodeHello(fr.Payload)
			if err != nil {
				return
			}
			re = AppendHello(nil, h)
		case OpWelcome:
			w, err := DecodeWelcome(fr.Payload)
			if err != nil {
				return
			}
			re = AppendWelcome(nil, w)
		case OpCall:
			c, err := DecodeCall(fr.Payload)
			if err != nil {
				return
			}
			re = AppendCall(nil, fr.ID, c)
		case OpResult:
			outs, err := DecodeResult(fr.Payload)
			if err != nil {
				return
			}
			re = AppendResult(nil, fr.ID, outs)
		case OpError:
			e, err := DecodeError(fr.Payload)
			if err != nil {
				return
			}
			re = AppendError(nil, fr.ID, e)
		default:
			return
		}
		rt, _, err := DecodeFrame(re, DefaultMaxFrame)
		if err != nil || !bytes.Equal(rt.Payload, fr.Payload) {
			t.Fatalf("%s re-encodes to payload %x, want %x (err %v)", OpName(fr.Op), rt.Payload, fr.Payload, err)
		}
	})
}

// outputsEqual compares two output lists by content. Values hold a
// data pointer, so reflect.DeepEqual would compare a string's first
// byte and length, not its text. Nil and empty Vals are one: both
// encode to a zero-length list.
func outputsEqual(a, b []Output) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].List != b[i].List || !storage.Tuple(a[i].Vals).Equal(b[i].Vals) {
			return false
		}
	}
	return true
}
