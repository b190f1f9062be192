// Package wire defines THEDB's client/server protocol: a
// length-prefixed binary framing layer plus the payload encodings for
// procedure-invocation requests and their responses.
//
// The protocol exists because the engine's transaction model — one-shot
// stored procedures whose dependency graphs are known up front (§3 of
// the healing paper) — is exactly what a network server can dispatch
// without holding client round-trips inside the critical section: a
// request carries the full procedure name and argument vector, so the
// server never waits on the client mid-transaction.
//
// # Framing
//
// Every message travels inside one frame:
//
//	offset 0  magic      uint16 LE (0x7DB1)
//	offset 2  version    uint8    (protocol version, pinned by the handshake)
//	offset 3  opcode     uint8
//	offset 4  request id uint64 LE
//	offset 12 length     uint32 LE (payload byte count)
//	offset 16 payload    [length]byte
//
// Request ids are chosen by the client and echoed verbatim in the
// matching response, which is what allows per-connection pipelining
// with out-of-order completion: the server may answer request 7 before
// request 3, and the client maps responses back by id. Id 0 is
// reserved for the handshake pair.
//
// A length field above the reader's configured maximum is treated as a
// protocol error, never as an allocation request.
//
// # Handshake and sessions
//
// The first frame on a connection must be OpHello from the client; the
// server answers OpWelcome (carrying its frame-size and pipelining
// limits) or OpError with CodeVersion and closes. Both directions pin
// the version byte for the rest of the connection.
//
// Hello carries a client session token (0 asks the server to mint
// one); Welcome returns the bound token plus the server's boot
// incarnation and per-session dedup-window size. That is the
// exactly-once retry plumbing: each Call carries a per-session
// monotonic operation sequence number, and re-sending a call with the
// same (session, seq) after a connection death is safe, because the
// server answers an already-completed sequence from its dedup window
// instead of executing it again. Seq 0 opts out (no dedup).
//
// # Calls
//
// Besides the procedure name, argument vector and sequence number, a
// Call carries:
//
//   - the client's remaining context deadline as a microsecond budget
//     (0 = none), which the server enforces at admission and again
//     before execution so work whose caller has given up is never run;
//   - a trace ID (0 = untraced; the server mints one at admission when
//     tracing is on), threaded through dispatch into the engine so the
//     retained trace, the flight-recorder events and the histogram
//     exemplars of one transaction all share the ID;
//   - a flags word. Bit 0 marks the call read-only: the server
//     executes it as a snapshot transaction — an epoch-consistent read
//     with zero validation (DESIGN.md §15) — and skips the dedup
//     window, since a read-only call is safe to re-execute. Higher
//     bits must be zero; the server rejects calls carrying flags it
//     does not understand rather than silently dropping their
//     semantics.
//
// # Payloads
//
// This is version 5. Payloads are written with the value codec of the
// WAL and the checkpoint (storage.AppendValue and friends: uvarints,
// zig-zag ints, a float as the uvarint of its bits, length-prefixed
// strings, counted value vectors) and read through the same
// storage.Decoder. A payload that decodes is one that re-encodes to
// exactly itself: varints are minimal, counts never exceed the bytes
// left, and no byte may trail the message.
//
// # Errors and load shedding
//
// Failures travel as OpError payloads carrying a typed code, an
// optional server-suggested backoff hint, and a message; whether a
// code is retryable is a property of the code (Retryable).
// Admission-control rejections (CodeShed, CodeDraining) are retryable:
// a well-behaved client backs off — honoring the hint — and retries,
// rather than treating shedding as failure.
package wire

import (
	"fmt"
	"time"
)

// Magic is the frame preamble; a connection that sends anything else
// is not speaking this protocol.
const Magic uint16 = 0x7DB1

// Version is the one protocol version this package speaks. The
// handshake pins it: both sides reject frames carrying any other.
const Version uint8 = 5

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 16

// DefaultMaxFrame bounds a frame payload unless the transport
// negotiates otherwise. Large enough for any realistic argument
// vector or result set, small enough that a hostile length field
// cannot balloon allocation.
const DefaultMaxFrame = 1 << 20

// Opcodes.
const (
	// OpHello opens a connection (client → server, request id 0).
	OpHello uint8 = 1
	// OpWelcome acknowledges the handshake (server → client, id 0).
	OpWelcome uint8 = 2
	// OpCall invokes a stored procedure.
	OpCall uint8 = 3
	// OpResult carries a successful invocation's outputs.
	OpResult uint8 = 4
	// OpError carries a typed failure for one request.
	OpError uint8 = 5
)

// OpName names an opcode for diagnostics.
func OpName(op uint8) string {
	switch op {
	case OpHello:
		return "hello"
	case OpWelcome:
		return "welcome"
	case OpCall:
		return "call"
	case OpResult:
		return "result"
	case OpError:
		return "error"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// MintTraceID finalizes a Call.TraceID from a salted counter
// (splitmix64; | 1 keeps it nonzero, since zero means untraced on the
// wire). Client and server mint with the same function, so an ID's
// origin does not show in its distribution.
func MintTraceID(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// Frame is one decoded protocol frame. Payload aliases the decode
// buffer and is valid only until the next read on the same Reader.
type Frame struct {
	Version uint8
	Op      uint8
	ID      uint64
	Payload []byte
}

// Error codes carried by OpError payloads.
const (
	// CodeInternal is an unclassified server-side failure.
	CodeInternal uint8 = 1
	// CodeBadRequest is a malformed or protocol-violating frame.
	CodeBadRequest uint8 = 2
	// CodeUnknownProc names an unregistered procedure.
	CodeUnknownProc uint8 = 3
	// CodeAbort is an application abort (thedb.UserAbort): the
	// transaction ran and rolled back for business-logic reasons.
	CodeAbort uint8 = 4
	// Code 5 is retired (it reported retry-budget exhaustion, and the
	// engine no longer gives up on a transaction); never reuse it.
	// CodeShed reports an admission-control rejection: the request
	// was never admitted because a per-connection or global in-flight
	// bound was hit. Retryable.
	CodeShed uint8 = 6
	// CodeDraining reports that the server is shutting down and no
	// longer admits new transactions. Retryable (against a replica or
	// after a restart).
	CodeDraining uint8 = 7
	// CodeVersion reports a protocol-version mismatch in the
	// handshake.
	CodeVersion uint8 = 8
	// CodeDeadline reports that a call's deadline budget was
	// exhausted before the server executed it. The transaction never
	// ran, but the caller's context is dead anyway, so the code is
	// not retryable: the client surfaces it like a local deadline.
	CodeDeadline uint8 = 9
)

// CodeName names an error code.
func CodeName(c uint8) string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad-request"
	case CodeUnknownProc:
		return "unknown-procedure"
	case CodeAbort:
		return "abort"
	case CodeShed:
		return "shed"
	case CodeDraining:
		return "draining"
	case CodeVersion:
		return "version-mismatch"
	case CodeDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("code(%d)", c)
	}
}

// Retryable reports whether an error code marks a transient condition
// the client should back off and retry.
func Retryable(c uint8) bool {
	return c == CodeShed || c == CodeDraining
}

// RemoteError is a server-reported failure decoded from an OpError
// payload. It is the error type the client package surfaces: shed
// requests arrive as typed shed/draining errors with backoff hints,
// never as silent drops.
type RemoteError struct {
	// Code is one of the Code constants.
	Code uint8
	// Backoff is the server's suggested wait before retrying (zero
	// when the server offers no hint). Only meaningful when
	// Retryable() is true.
	Backoff time.Duration
	// Msg is the human-readable detail.
	Msg string
}

// Error formats the failure.
func (e *RemoteError) Error() string {
	if e.Backoff > 0 {
		return fmt.Sprintf("thedb: remote %s: %s (retry after %v)", CodeName(e.Code), e.Msg, e.Backoff)
	}
	return fmt.Sprintf("thedb: remote %s: %s", CodeName(e.Code), e.Msg)
}

// Retryable reports whether the client should back off and retry.
func (e *RemoteError) Retryable() bool { return Retryable(e.Code) }
