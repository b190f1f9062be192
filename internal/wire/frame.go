package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrFrameTooLarge reports a frame whose length field exceeds the
// reader's maximum. The connection is unrecoverable past this point
// (the stream position is lost), so callers must close it.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrBadMagic reports a frame that does not start with Magic: the
// peer is not speaking this protocol.
var ErrBadMagic = errors.New("wire: bad frame magic")

// ErrBadVersion reports a frame carrying an unsupported protocol
// version.
var ErrBadVersion = errors.New("wire: unsupported protocol version")

// ErrTruncated reports a frame or payload cut short.
var ErrTruncated = errors.New("wire: truncated")

// BeginFrame appends a frame header for op and id with the length
// field left zero. The caller appends the payload straight after it
// and closes the frame with EndFrame, so a message is encoded once,
// in place, with no intermediate payload buffer. Growing dst is the
// caller's amortized cost; the frame itself adds no allocation.
//
//thedb:noalloc
func BeginFrame(dst []byte, op uint8, id uint64) []byte {
	dst = append(dst, byte(Magic&0xff), byte(Magic>>8), Version, op)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, 0, 0, 0, 0)
}

// EndFrame back-patches the length field of the frame BeginFrame
// started at dst[start] with the payload bytes appended since.
//
//thedb:noalloc
func EndFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(len(dst)-start-HeaderSize))
	return dst
}

// SetID re-addresses an encoded frame: the server's dedup window
// replays one cached response under each retry's request id.
//
//thedb:noalloc
func SetID(frame []byte, id uint64) {
	binary.LittleEndian.PutUint64(frame[4:12], id)
}

// AppendFrame appends one encoded frame around an existing payload
// and returns the extended slice.
//
//thedb:noalloc
func AppendFrame(dst []byte, op uint8, id uint64, payload []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst, op, id)
	dst = append(dst, payload...)
	return EndFrame(dst, start)
}

// Recycle empties an encode buffer for reuse, unless one burst of large
// frames grew it past what is worth pinning for a connection's life.
func Recycle(buf []byte) []byte {
	if cap(buf) > 64<<10 {
		return nil
	}
	return buf[:0]
}

// DecodeFrame decodes one frame from the front of b without copying:
// the returned Frame's payload aliases b. n is the number of bytes
// consumed. maxPayload bounds the accepted payload length (<= 0 means
// DefaultMaxFrame); a length field beyond it fails with
// ErrFrameTooLarge before anything is allocated or sliced. The
// accepting path is zero-alloc; the rejecting paths build one
// detailed error and the connection dies.
//
//thedb:noalloc
func DecodeFrame(b []byte, maxPayload int) (f Frame, n int, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFrame
	}
	if len(b) < HeaderSize {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, 0, fmt.Errorf("%w: frame header (%d of %d bytes)", ErrTruncated, len(b), HeaderSize)
	}
	if got := binary.LittleEndian.Uint16(b[0:2]); got != Magic {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, 0, fmt.Errorf("%w: %#04x", ErrBadMagic, got)
	}
	f.Version = b[2]
	if f.Version != Version {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, 0, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, f.Version, Version)
	}
	f.Op = b[3]
	f.ID = binary.LittleEndian.Uint64(b[4:12])
	length := binary.LittleEndian.Uint32(b[12:16])
	if uint64(length) > uint64(maxPayload) {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, length, maxPayload)
	}
	if uint64(len(b)-HeaderSize) < uint64(length) {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, 0, fmt.Errorf("%w: frame body (%d of %d bytes)", ErrTruncated, len(b)-HeaderSize, length)
	}
	f.Payload = b[HeaderSize : HeaderSize+int(length)]
	return f, HeaderSize + int(length), nil
}

// Reader pulls frames off a byte stream. It owns a reusable payload
// buffer: the returned Frame's payload is valid only until the next
// call to Next.
type Reader struct {
	br  *bufio.Reader
	max int
	hdr [HeaderSize]byte // here, not in Next: a local would escape through io.ReadFull
	buf []byte
}

// NewReader wraps r. maxPayload bounds accepted frame payloads
// (<= 0 means DefaultMaxFrame); the buffer grows to the largest frame
// actually seen, never to a hostile length field.
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), max: maxPayload}
}

// Next reads one frame. io.EOF means the peer closed cleanly between
// frames; a partial frame surfaces as io.ErrUnexpectedEOF. The
// steady-state path reads into the reused payload buffer without
// allocating.
//
//thedb:noalloc
func (r *Reader) Next() (Frame, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	var f Frame
	if got := binary.LittleEndian.Uint16(hdr[0:2]); got != Magic {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, fmt.Errorf("%w: %#04x", ErrBadMagic, got)
	}
	f.Version = hdr[2]
	if f.Version != Version {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, f.Version, Version)
	}
	f.Op = hdr[3]
	f.ID = binary.LittleEndian.Uint64(hdr[4:12])
	length := binary.LittleEndian.Uint32(hdr[12:16])
	if uint64(length) > uint64(r.max) {
		//thedb:nolint:noalloc cold reject path: a malformed frame tears down the connection, never the commit path
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, length, r.max)
	}
	if cap(r.buf) < int(length) {
		//thedb:nolint:noalloc amortized growth: the buffer grows to the largest frame actually seen, then is reused for every later frame
		r.buf = make([]byte, length)
	}
	r.buf = r.buf[:length]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f.Payload = r.buf
	return f, nil
}
