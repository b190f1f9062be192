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
	start := len(dst)
	dst = BeginFrame(dst, OpHello, 0)
	dst = binary.LittleEndian.AppendUint64(dst, h.Session)
	dst = appendString(dst, h.Client)
	return EndFrame(dst, start)
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
	start := len(dst)
	dst = BeginFrame(dst, OpWelcome, 0)
	dst = binary.LittleEndian.AppendUint32(dst, w.MaxFrame)
	dst = binary.LittleEndian.AppendUint32(dst, w.MaxInFlight)
	dst = binary.LittleEndian.AppendUint64(dst, w.Session)
	dst = binary.LittleEndian.AppendUint64(dst, w.Incarnation)
	dst = binary.LittleEndian.AppendUint32(dst, w.DedupWindow)
	dst = appendString(dst, w.Server)
	return EndFrame(dst, start)
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

// AppendCall appends an encoded OpCall frame, header and payload
// written in place into dst: a client encodes straight into its
// connection's write buffer.
//
//thedb:noalloc
func AppendCall(dst []byte, id uint64, c Call) []byte {
	start := len(dst)
	dst = BeginFrame(dst, OpCall, id)
	dst = binary.AppendUvarint(dst, c.Seq)
	dst = binary.AppendUvarint(dst, c.BudgetUS)
	dst = binary.AppendUvarint(dst, c.TraceID)
	flags := uint64(0)
	if c.ReadOnly {
		flags |= callFlagReadOnly
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = appendString(dst, c.Proc)
	dst = binary.AppendUvarint(dst, uint64(len(c.Args)))
	for _, v := range c.Args {
		dst = appendValue(dst, v)
	}
	return EndFrame(dst, start)
}

// DecodeCall decodes an OpCall payload into a fresh Call.
func DecodeCall(p []byte) (Call, error) {
	var c Call
	name, err := DecodeCallInto(&c, p)
	c.Proc = string(name)
	return c, err
}

// DecodeCallInto decodes an OpCall payload into c, reusing c.Args'
// backing array, and returns the procedure name as bytes aliasing p.
// c.Proc is left alone: a server resolves the name against its
// catalog from those bytes instead of allocating a string per call.
// String arguments are the only allocations (each its own, so a value
// the engine stores never pins the frame it arrived in). On error c
// is unspecified.
func DecodeCallInto(c *Call, p []byte) (name []byte, err error) {
	rest := p
	if c.Seq, rest, err = decodeUvarint(rest); err != nil {
		return nil, fmt.Errorf("wire: call: op sequence: %w", err)
	}
	if c.BudgetUS, rest, err = decodeUvarint(rest); err != nil {
		return nil, fmt.Errorf("wire: call: deadline budget: %w", err)
	}
	if c.BudgetUS > uint64(math.MaxInt64/int64(time.Microsecond)) {
		return nil, fmt.Errorf("wire: call: implausible deadline budget %dµs", c.BudgetUS)
	}
	if c.TraceID, rest, err = decodeUvarint(rest); err != nil {
		return nil, fmt.Errorf("wire: call: trace id: %w", err)
	}
	flags, rest, err := decodeUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("wire: call: flags: %w", err)
	}
	if flags&^callFlagsKnown != 0 {
		return nil, fmt.Errorf("wire: call: unknown flags %#x", flags&^callFlagsKnown)
	}
	c.ReadOnly = flags&callFlagReadOnly != 0
	if name, rest, err = decodeBytes(rest); err != nil {
		return nil, fmt.Errorf("wire: call: procedure name: %w", err)
	}
	argc, rest, err := decodeUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("wire: call: argument count: %w", err)
	}
	if argc > maxArgs {
		return nil, fmt.Errorf("wire: call: implausible argument count %d", argc)
	}
	if uint64(cap(c.Args)) < argc {
		c.Args = make([]storage.Value, 0, argc)
	}
	c.Args = c.Args[:0]
	for i := uint64(0); i < argc; i++ {
		var v storage.Value
		if v, rest, err = decodeValue(rest, nil); err != nil {
			return nil, fmt.Errorf("wire: call: argument %d: %w", i, err)
		}
		c.Args = append(c.Args, v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: call: %d trailing bytes", len(rest))
	}
	return name, nil
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

// A RESULT payload is an output count followed by that many outputs.
// AppendOutputCount, AppendScalar and AppendList are its pieces: the
// server writes them between BeginFrame and EndFrame straight from a
// transaction's variables, with no []Output in between.

// AppendOutputCount appends the number of outputs that follow.
//
//thedb:noalloc
func AppendOutputCount(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendScalar appends one scalar output.
//
//thedb:noalloc
func AppendScalar(dst []byte, name string, v storage.Value) []byte {
	dst = appendString(dst, name)
	dst = append(dst, 0)
	return appendValue(dst, v)
}

// AppendList appends one value-list output.
//
//thedb:noalloc
func AppendList(dst []byte, name string, vals []storage.Value) []byte {
	dst = appendString(dst, name)
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = appendValue(dst, v)
	}
	return dst
}

// AppendResult appends an encoded OpResult frame carrying the named
// outputs in the given order, written in place into dst.
//
//thedb:noalloc
func AppendResult(dst []byte, id uint64, outs []Output) []byte {
	start := len(dst)
	dst = BeginFrame(dst, OpResult, id)
	dst = AppendOutputCount(dst, len(outs))
	for _, o := range outs {
		if o.List {
			dst = AppendList(dst, o.Name, o.Vals)
		} else {
			dst = AppendScalar(dst, o.Name, o.Vals[0])
		}
	}
	return EndFrame(dst, start)
}

// DecodeResult decodes an OpResult payload. A result of scalars costs
// three allocations whatever its size — the outputs, one backing array
// for every value, and one copy of the payload that every name and
// string value is cut from (so any of them keeps that copy alive); a
// value list may grow the backing array once more.
func DecodeResult(p []byte) ([]Output, error) {
	n, rest, err := decodeUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("wire: result: output count: %w", err)
	}
	if n > maxArgs || n > uint64(len(rest)) { // an output is at least a name length and a tag
		return nil, fmt.Errorf("wire: result: implausible output count %d", n)
	}
	outs := make([]Output, 0, n)
	vals := make([]storage.Value, 0, n)
	src := &shared{p: p}
	for i := uint64(0); i < n; i++ {
		var name []byte
		if name, rest, err = decodeBytes(rest); err != nil {
			return nil, fmt.Errorf("wire: result: output %d name: %w", i, err)
		}
		o := Output{Name: src.str(name)}
		if len(rest) == 0 {
			return nil, fmt.Errorf("wire: result: output %q: %w: tag", o.Name, ErrTruncated)
		}
		tag, cnt := rest[0], uint64(1)
		rest = rest[1:]
		switch tag {
		case 0:
		case 1:
			o.List = true
			if cnt, rest, err = decodeUvarint(rest); err != nil {
				return nil, fmt.Errorf("wire: result: output %q length: %w", o.Name, err)
			}
			if cnt > maxArgs || cnt > uint64(len(rest)) { // a value is at least its kind byte
				return nil, fmt.Errorf("wire: result: output %q: implausible length %d", o.Name, cnt)
			}
			if need := len(vals) + int(cnt+n-i-1); need > cap(vals) { // the list and the outputs still to come
				vals = append(make([]storage.Value, 0, need), vals...)
			}
		default:
			return nil, fmt.Errorf("wire: result: output %q: unknown tag %d", o.Name, tag)
		}
		for j := uint64(0); j < cnt; j++ {
			var v storage.Value
			if v, rest, err = decodeValue(rest, src); err != nil {
				return nil, fmt.Errorf("wire: result: output %q[%d]: %w", o.Name, j, err)
			}
			vals = append(vals, v)
		}
		if cnt > 0 {
			o.Vals = vals[len(vals)-int(cnt) : len(vals) : len(vals)]
		}
		outs = append(outs, o)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: result: %d trailing bytes", len(rest))
	}
	return outs, nil
}

// --- Errors ------------------------------------------------------------

// AppendError appends an encoded OpError frame for e, written in
// place into dst.
//
//thedb:noalloc
func AppendError(dst []byte, id uint64, e RemoteError) []byte {
	start := len(dst)
	dst = BeginFrame(dst, OpError, id)
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
	return EndFrame(dst, start)
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

// shared cuts strings out of one lazily made copy of a payload, so a
// message with many names and string values costs one allocation for
// all of them. Every body handed to str must be a subslice of p.
type shared struct {
	p []byte
	s string
}

func (sh *shared) str(body []byte) string {
	if len(body) == 0 {
		return ""
	}
	if sh.s == "" {
		sh.s = string(sh.p)
	}
	off := cap(sh.p) - cap(body)
	return sh.s[off : off+len(body)]
}

// decodeValue decodes one typed value from the front of b. A string
// value is cut from src when src is non-nil, else allocated on its
// own.
func decodeValue(b []byte, src *shared) (storage.Value, []byte, error) {
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
		body, rest, err := decodeBytes(b)
		if err != nil {
			return storage.Null, nil, err
		}
		if src != nil {
			return storage.Str(src.str(body)), rest, nil
		}
		return storage.Str(string(body)), rest, nil
	default:
		return storage.Null, nil, fmt.Errorf("wire: unknown value kind %d", kind)
	}
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBytes decodes a length-prefixed string as bytes aliasing b.
// The declared length is checked against the remaining bytes before
// anything is sliced, so a hostile length cannot over-allocate.
func decodeBytes(b []byte) (body, rest []byte, err error) {
	n, rest, err := decodeUvarint(b)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: string length", ErrTruncated)
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: string body (%d of %d bytes)", ErrTruncated, len(rest), n)
	}
	return rest[:n], rest[n:], nil
}

// decodeString is decodeBytes with the body copied into a string.
func decodeString(b []byte) (string, []byte, error) {
	body, rest, err := decodeBytes(b)
	return string(body), rest, err
}

// decodeUvarint decodes a uvarint from the front of b.
func decodeUvarint(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, ErrTruncated
	}
	return n, b[sz:], nil
}
