package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"thedb/internal/storage"
)

// maxMicros bounds a microsecond field so that it converts to a
// time.Duration without overflow.
const maxMicros = uint64(math.MaxInt64 / time.Microsecond)

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
	dst = binary.AppendUvarint(dst, h.Session)
	dst = storage.AppendString(dst, h.Client)
	return EndFrame(dst, start)
}

// DecodeHello decodes an OpHello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := storage.NewDecoder(p)
	h := Hello{Session: d.Uvarint(), Client: d.Str()}
	if err := d.Done(); err != nil {
		return Hello{}, fmt.Errorf("wire: hello: %w", err)
	}
	return h, nil
}

// AppendWelcome appends an encoded OpWelcome frame (request id 0).
func AppendWelcome(dst []byte, w Welcome) []byte {
	start := len(dst)
	dst = BeginFrame(dst, OpWelcome, 0)
	for _, x := range [...]uint64{uint64(w.MaxFrame), uint64(w.MaxInFlight), w.Session, w.Incarnation, uint64(w.DedupWindow)} {
		dst = binary.AppendUvarint(dst, x)
	}
	dst = storage.AppendString(dst, w.Server)
	return EndFrame(dst, start)
}

// DecodeWelcome decodes an OpWelcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	d := storage.NewDecoder(p)
	frame, inFlight := d.Uvarint(), d.Uvarint()
	w := Welcome{Session: d.Uvarint(), Incarnation: d.Uvarint()}
	window := d.Uvarint()
	w.Server = d.Str()
	if err := d.Done(); err != nil {
		return Welcome{}, fmt.Errorf("wire: welcome: %w", err)
	}
	if max(frame, inFlight, window) > math.MaxUint32 {
		return Welcome{}, fmt.Errorf("wire: welcome: a limit (%d, %d, %d) above 32 bits", frame, inFlight, window)
	}
	w.MaxFrame, w.MaxInFlight, w.DedupWindow = uint32(frame), uint32(inFlight), uint32(window)
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
	// TraceID is the client-minted transaction trace ID. Zero means the caller is untraced: a server with tracing enabled
	// mints an ID at admission instead, so every traced transaction
	// has exactly one nonzero ID end to end. The ID correlates the
	// retained trace, the flight-recorder events and the histogram
	// exemplars (DESIGN.md §7.3).
	TraceID uint64
	// ReadOnly marks the call a snapshot read: the server
	// executes it as a read-only snapshot transaction with zero
	// validation and skips the dedup window (re-executing a read is
	// safe). Wire flags word bit 0.
	ReadOnly bool
}

// Call flag bits.
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
	dst = storage.AppendString(dst, c.Proc)
	dst = storage.AppendValues(dst, c.Args)
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
	d := storage.NewDecoder(p)
	c.Seq, c.BudgetUS, c.TraceID = d.Uvarint(), d.Uvarint(), d.Uvarint()
	flags := d.Uvarint()
	name = d.Bytes()
	c.Args = d.Values(c.Args[:0])
	switch {
	case d.Done() != nil:
		return nil, fmt.Errorf("wire: call: %w", d.Err())
	case c.BudgetUS > maxMicros:
		return nil, fmt.Errorf("wire: call: implausible deadline budget %dµs", c.BudgetUS)
	case flags&^callFlagsKnown != 0:
		return nil, fmt.Errorf("wire: call: unknown flags %#x", flags&^callFlagsKnown)
	}
	c.ReadOnly = flags&callFlagReadOnly != 0
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
	dst = storage.AppendString(dst, name)
	dst = append(dst, 0)
	return storage.AppendValue(dst, v)
}

// AppendList appends one value-list output.
//
//thedb:noalloc
func AppendList(dst []byte, name string, vals []storage.Value) []byte {
	dst = storage.AppendString(dst, name)
	dst = append(dst, 1)
	return storage.AppendValues(dst, vals)
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
	d := storage.NewDecoder(p)
	d.Share()
	n := d.Count()
	outs := make([]Output, 0, n)
	vals := make([]storage.Value, 0, n) // room for the outputs still to come, kept when a list grows it
	for range n {
		o, from := Output{Name: d.Str()}, len(vals)
		switch tag := d.Byte(); tag {
		case 0:
			vals = append(vals, d.Value())
		case 1:
			o.List = true
			vals = d.Values(vals)
		default:
			return nil, fmt.Errorf("wire: result: output %q: unknown tag %d", o.Name, tag)
		}
		if len(vals) > from {
			o.Vals = vals[from:len(vals):len(vals)]
		}
		outs = append(outs, o)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("wire: result: %w", err)
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
	dst = binary.AppendUvarint(dst, uint64(max(e.Backoff, 0)/time.Microsecond))
	dst = storage.AppendString(dst, e.Msg)
	return EndFrame(dst, start)
}

// DecodeError decodes an OpError payload.
func DecodeError(p []byte) (RemoteError, error) {
	d := storage.NewDecoder(p)
	e := RemoteError{Code: d.Byte()}
	backoffUS := d.Uvarint()
	e.Msg = d.Str()
	if err := d.Done(); err != nil {
		return RemoteError{}, fmt.Errorf("wire: error: %w", err)
	}
	if backoffUS > maxMicros {
		return RemoteError{}, fmt.Errorf("wire: error: implausible backoff %dµs", backoffUS)
	}
	e.Backoff = time.Duration(backoffUS) * time.Microsecond
	return e, nil
}
