package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"thedb/internal/storage"
)

// maxArgs bounds the declared element count of an argument vector or
// result list, so a hostile count field cannot drive a huge
// allocation: counts beyond it fail decoding before any slice is
// sized. (Every element costs at least one payload byte, so the
// remaining-byte check would catch these too; the explicit cap keeps
// pre-allocation honest.)
const maxArgs = 1 << 16

// --- Handshake ---------------------------------------------------------

// Hello is the client's opening message.
type Hello struct {
	// Client names the client software (diagnostics only).
	Client string
	// Session is the client's session token from a previous Welcome,
	// binding this connection into that session's dedup window. Zero
	// asks the server to mint a fresh token.
	Session uint64
}

// Welcome is the server's handshake acknowledgement, carrying the
// limits the client must respect on this connection.
type Welcome struct {
	// MaxFrame is the largest frame payload the server accepts.
	MaxFrame uint32
	// MaxInFlight is the per-connection pipelining bound: requests
	// beyond it are shed, so a client gains nothing by exceeding it.
	MaxInFlight uint32
	// Session is the session token this connection is bound to — the
	// one presented in Hello, or a freshly minted one.
	Session uint64
	// Incarnation identifies this server process's boot. A client
	// that re-sent an unanswered (session, seq) call must compare
	// incarnations: the dedup window does not survive a restart, so a
	// changed incarnation turns a transparent retry into an honest
	// "may have committed" report.
	Incarnation uint64
	// DedupWindow is the per-session count of completed operations
	// the server retains for duplicate suppression. Zero means dedup
	// is disabled: every connection death is ambiguous.
	DedupWindow uint32
	// Server names the server software (diagnostics only).
	Server string
}

// AppendHello appends an encoded OpHello frame (request id 0).
func AppendHello(dst []byte, h Hello) []byte {
	p := make([]byte, 0, 12+len(h.Client))
	p = binary.LittleEndian.AppendUint64(p, h.Session)
	p = appendString(p, h.Client)
	return AppendFrame(dst, OpHello, 0, p)
}

// DecodeHello decodes an OpHello payload.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < 8 {
		return Hello{}, fmt.Errorf("wire: hello: %w: session token", ErrTruncated)
	}
	h := Hello{Session: binary.LittleEndian.Uint64(p[0:8])}
	client, rest, err := decodeString(p[8:])
	if err != nil {
		return Hello{}, fmt.Errorf("wire: hello: %w", err)
	}
	if len(rest) != 0 {
		return Hello{}, fmt.Errorf("wire: hello: %d trailing bytes", len(rest))
	}
	h.Client = client
	return h, nil
}

// AppendWelcome appends an encoded OpWelcome frame (request id 0).
func AppendWelcome(dst []byte, w Welcome) []byte {
	p := make([]byte, 0, 32+len(w.Server))
	p = binary.LittleEndian.AppendUint32(p, w.MaxFrame)
	p = binary.LittleEndian.AppendUint32(p, w.MaxInFlight)
	p = binary.LittleEndian.AppendUint64(p, w.Session)
	p = binary.LittleEndian.AppendUint64(p, w.Incarnation)
	p = binary.LittleEndian.AppendUint32(p, w.DedupWindow)
	p = appendString(p, w.Server)
	return AppendFrame(dst, OpWelcome, 0, p)
}

// DecodeWelcome decodes an OpWelcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	if len(p) < 28 {
		return Welcome{}, fmt.Errorf("wire: welcome: %w: limits", ErrTruncated)
	}
	var w Welcome
	w.MaxFrame = binary.LittleEndian.Uint32(p[0:4])
	w.MaxInFlight = binary.LittleEndian.Uint32(p[4:8])
	w.Session = binary.LittleEndian.Uint64(p[8:16])
	w.Incarnation = binary.LittleEndian.Uint64(p[16:24])
	w.DedupWindow = binary.LittleEndian.Uint32(p[24:28])
	server, rest, err := decodeString(p[28:])
	if err != nil {
		return Welcome{}, fmt.Errorf("wire: welcome: %w", err)
	}
	if len(rest) != 0 {
		return Welcome{}, fmt.Errorf("wire: welcome: %d trailing bytes", len(rest))
	}
	w.Server = server
	return w, nil
}

// --- Procedure invocation ---------------------------------------------

// Call is a procedure-invocation request.
type Call struct {
	Proc string
	Args []storage.Value
	// Seq is the per-session monotonic operation sequence number.
	// Re-sending a call with the same (session, seq) is safe: the
	// server's dedup window answers an already-completed sequence
	// with its original result instead of executing it again. Zero
	// opts out of dedup.
	Seq uint64
	// BudgetUS is the caller's remaining context deadline in
	// microseconds at send time (0 = no deadline). The server rejects
	// the call with CodeDeadline — at admission or just before
	// execution — once the budget has elapsed on its own clock.
	BudgetUS uint64
	// TraceID is the client-minted transaction trace ID (version 3).
	// Zero means the caller is untraced: a server with tracing enabled
	// mints an ID at admission instead, so every traced transaction
	// has exactly one nonzero ID end to end. The ID correlates the
	// retained trace, the flight-recorder events and the histogram
	// exemplars (DESIGN.md §14).
	TraceID uint64
	// ReadOnly marks the call a snapshot read (version 4): the server
	// executes it as a read-only snapshot transaction with zero
	// validation and skips the dedup window (re-executing a read is
	// safe). Wire flags word bit 0.
	ReadOnly bool
}

// Call flag bits (version 4).
const (
	// callFlagReadOnly marks a snapshot-read call.
	callFlagReadOnly uint64 = 1 << 0
	// callFlagsKnown masks the flag bits this implementation
	// understands; decoding rejects anything outside it.
	callFlagsKnown = callFlagReadOnly
)

// AppendCall appends an encoded OpCall frame.
func AppendCall(dst []byte, id uint64, c Call) []byte {
	p := binary.AppendUvarint(nil, c.Seq)
	p = binary.AppendUvarint(p, c.BudgetUS)
	p = binary.AppendUvarint(p, c.TraceID)
	flags := uint64(0)
	if c.ReadOnly {
		flags |= callFlagReadOnly
	}
	p = binary.AppendUvarint(p, flags)
	p = appendString(p, c.Proc)
	p = binary.AppendUvarint(p, uint64(len(c.Args)))
	for _, v := range c.Args {
		p = appendValue(p, v)
	}
	return AppendFrame(dst, OpCall, id, p)
}

// DecodeCall decodes an OpCall payload.
func DecodeCall(p []byte) (Call, error) {
	seq, rest, err := decodeUvarint(p)
	if err != nil {
		return Call{}, fmt.Errorf("wire: call: op sequence: %w", err)
	}
	budgetUS, rest, err := decodeUvarint(rest)
	if err != nil {
		return Call{}, fmt.Errorf("wire: call: deadline budget: %w", err)
	}
	if budgetUS > uint64(math.MaxInt64/int64(time.Microsecond)) {
		return Call{}, fmt.Errorf("wire: call: implausible deadline budget %dµs", budgetUS)
	}
	traceID, rest, err := decodeUvarint(rest)
	if err != nil {
		return Call{}, fmt.Errorf("wire: call: trace id: %w", err)
	}
	flags, rest, err := decodeUvarint(rest)
	if err != nil {
		return Call{}, fmt.Errorf("wire: call: flags: %w", err)
	}
	if flags&^callFlagsKnown != 0 {
		return Call{}, fmt.Errorf("wire: call: unknown flags %#x", flags&^callFlagsKnown)
	}
	name, rest, err := decodeString(rest)
	if err != nil {
		return Call{}, fmt.Errorf("wire: call: procedure name: %w", err)
	}
	argc, rest, err := decodeUvarint(rest)
	if err != nil {
		return Call{}, fmt.Errorf("wire: call: argument count: %w", err)
	}
	if argc > maxArgs {
		return Call{}, fmt.Errorf("wire: call: implausible argument count %d", argc)
	}
	c := Call{Proc: name, Seq: seq, BudgetUS: budgetUS, TraceID: traceID,
		ReadOnly: flags&callFlagReadOnly != 0}
	if argc > 0 {
		c.Args = make([]storage.Value, 0, argc)
	}
	for i := uint64(0); i < argc; i++ {
		var v storage.Value
		v, rest, err = decodeValue(rest)
		if err != nil {
			return Call{}, fmt.Errorf("wire: call: argument %d: %w", i, err)
		}
		c.Args = append(c.Args, v)
	}
	if len(rest) != 0 {
		return Call{}, fmt.Errorf("wire: call: %d trailing bytes", len(rest))
	}
	return c, nil
}

// --- Results -----------------------------------------------------------

// Output is one named result variable of a committed invocation:
// either a scalar (List false, Vals of length 1) or a value list
// (range-read outputs).
type Output struct {
	Name string
	List bool
	Vals []storage.Value
}

// AppendResultPayload appends the payload encoding of the named
// outputs (no frame header). The server's dedup window caches these
// payloads and re-frames them per retry with the retry's request id.
func AppendResultPayload(dst []byte, outs []Output) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(outs)))
	for _, o := range outs {
		dst = appendString(dst, o.Name)
		if o.List {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(o.Vals)))
			for _, v := range o.Vals {
				dst = appendValue(dst, v)
			}
		} else {
			dst = append(dst, 0)
			dst = appendValue(dst, o.Vals[0])
		}
	}
	return dst
}

// AppendResult appends an encoded OpResult frame carrying the named
// outputs in the given order.
func AppendResult(dst []byte, id uint64, outs []Output) []byte {
	return AppendFrame(dst, OpResult, id, AppendResultPayload(nil, outs))
}

// DecodeResult decodes an OpResult payload.
func DecodeResult(p []byte) ([]Output, error) {
	n, rest, err := decodeUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("wire: result: output count: %w", err)
	}
	if n > maxArgs {
		return nil, fmt.Errorf("wire: result: implausible output count %d", n)
	}
	outs := make([]Output, 0, n)
	for i := uint64(0); i < n; i++ {
		var o Output
		o.Name, rest, err = decodeString(rest)
		if err != nil {
			return nil, fmt.Errorf("wire: result: output %d name: %w", i, err)
		}
		if len(rest) == 0 {
			return nil, fmt.Errorf("wire: result: output %q: %w: tag", o.Name, ErrTruncated)
		}
		tag := rest[0]
		rest = rest[1:]
		switch tag {
		case 0:
			var v storage.Value
			v, rest, err = decodeValue(rest)
			if err != nil {
				return nil, fmt.Errorf("wire: result: output %q: %w", o.Name, err)
			}
			o.Vals = []storage.Value{v}
		case 1:
			o.List = true
			var cnt uint64
			cnt, rest, err = decodeUvarint(rest)
			if err != nil {
				return nil, fmt.Errorf("wire: result: output %q length: %w", o.Name, err)
			}
			if cnt > maxArgs {
				return nil, fmt.Errorf("wire: result: output %q: implausible length %d", o.Name, cnt)
			}
			if cnt > 0 {
				o.Vals = make([]storage.Value, 0, cnt)
			}
			for j := uint64(0); j < cnt; j++ {
				var v storage.Value
				v, rest, err = decodeValue(rest)
				if err != nil {
					return nil, fmt.Errorf("wire: result: output %q[%d]: %w", o.Name, j, err)
				}
				o.Vals = append(o.Vals, v)
			}
		default:
			return nil, fmt.Errorf("wire: result: output %q: unknown tag %d", o.Name, tag)
		}
		outs = append(outs, o)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: result: %d trailing bytes", len(rest))
	}
	return outs, nil
}

// --- Errors ------------------------------------------------------------

// AppendErrorPayload appends the payload encoding of e (no frame
// header) — the cacheable form, like AppendResultPayload.
func AppendErrorPayload(dst []byte, e RemoteError) []byte {
	dst = append(dst, e.Code)
	flags := byte(0)
	if Retryable(e.Code) {
		flags |= 1
	}
	dst = append(dst, flags)
	backoffUS := uint64(0)
	if e.Backoff > 0 {
		backoffUS = uint64(e.Backoff / time.Microsecond)
	}
	dst = binary.AppendUvarint(dst, backoffUS)
	dst = appendString(dst, e.Msg)
	return dst
}

// AppendError appends an encoded OpError frame for e.
func AppendError(dst []byte, id uint64, e RemoteError) []byte {
	return AppendFrame(dst, OpError, id, AppendErrorPayload(nil, e))
}

// DecodeError decodes an OpError payload.
func DecodeError(p []byte) (RemoteError, error) {
	if len(p) < 2 {
		return RemoteError{}, fmt.Errorf("wire: error: %w: code", ErrTruncated)
	}
	e := RemoteError{Code: p[0]}
	backoffUS, rest, err := decodeUvarint(p[2:])
	if err != nil {
		return RemoteError{}, fmt.Errorf("wire: error: backoff: %w", err)
	}
	if backoffUS > uint64(math.MaxInt64/int64(time.Microsecond)) {
		return RemoteError{}, fmt.Errorf("wire: error: implausible backoff %dµs", backoffUS)
	}
	e.Backoff = time.Duration(backoffUS) * time.Microsecond
	e.Msg, rest, err = decodeString(rest)
	if err != nil {
		return RemoteError{}, fmt.Errorf("wire: error: message: %w", err)
	}
	if len(rest) != 0 {
		return RemoteError{}, fmt.Errorf("wire: error: %d trailing bytes", len(rest))
	}
	return e, nil
}

// --- Value codec -------------------------------------------------------

// appendValue appends one typed column value: a kind byte followed by
// the kind-specific body (nothing for null, zigzag varint for int,
// 8 IEEE-754 bytes for float, length-prefixed bytes for string).
func appendValue(dst []byte, v storage.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case storage.KindNull:
	case storage.KindInt:
		dst = binary.AppendVarint(dst, v.Int())
	case storage.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case storage.KindString:
		dst = appendString(dst, v.Str())
	}
	return dst
}

// decodeValue decodes one typed value from the front of b.
func decodeValue(b []byte) (storage.Value, []byte, error) {
	if len(b) == 0 {
		return storage.Null, nil, fmt.Errorf("%w: value kind", ErrTruncated)
	}
	kind := storage.ValueKind(b[0])
	b = b[1:]
	switch kind {
	case storage.KindNull:
		return storage.Null, b, nil
	case storage.KindInt:
		n, sz := binary.Varint(b)
		if sz <= 0 {
			return storage.Null, nil, fmt.Errorf("%w: int value", ErrTruncated)
		}
		return storage.Int(n), b[sz:], nil
	case storage.KindFloat:
		if len(b) < 8 {
			return storage.Null, nil, fmt.Errorf("%w: float value", ErrTruncated)
		}
		return storage.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))), b[8:], nil
	case storage.KindString:
		s, rest, err := decodeString(b)
		if err != nil {
			return storage.Null, nil, err
		}
		return storage.Str(s), rest, nil
	default:
		return storage.Null, nil, fmt.Errorf("wire: unknown value kind %d", kind)
	}
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeString decodes a length-prefixed string. The declared length
// is checked against the remaining bytes before the string is
// materialized, so a hostile length cannot over-allocate.
func decodeString(b []byte) (string, []byte, error) {
	n, rest, err := decodeUvarint(b)
	if err != nil {
		return "", nil, fmt.Errorf("%w: string length", ErrTruncated)
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("%w: string body (%d of %d bytes)", ErrTruncated, len(rest), n)
	}
	return string(rest[:n]), rest[n:], nil
}

// decodeUvarint decodes a uvarint from the front of b.
func decodeUvarint(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, ErrTruncated
	}
	return n, b[sz:], nil
}
