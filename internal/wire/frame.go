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
func BeginFrame(dst []byte, op uint8, id uint64) []byte {
	dst = append(dst, byte(Magic&0xff), byte(Magic>>8), Version, op)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, 0, 0, 0, 0)
}

// EndFrame back-patches the length field of the frame BeginFrame
// started at dst[start] with the payload bytes appended since.
func EndFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(len(dst)-start-HeaderSize))
	return dst
}

// SetID re-addresses an encoded frame: the server's dedup window
// replays one cached response under each retry's request id.
func SetID(frame []byte, id uint64) {
	binary.LittleEndian.PutUint64(frame[4:12], id)
}

// AppendFrame appends one encoded frame around an existing payload
// and returns the extended slice.
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

// decodeHeader checks and decodes the HeaderSize bytes at the front of
// b: the frame's fields, Payload excepted, and the payload length the
// header declares, bounded by maxPayload before anything is allocated
// or sliced. The accepting path is zero-alloc; the rejecting paths
// build one detailed error and the connection dies.
func decodeHeader(b []byte, maxPayload int) (f Frame, length int, err error) {
	if got := binary.LittleEndian.Uint16(b[0:2]); got != Magic {
		return Frame{}, 0, fmt.Errorf("%w: %#04x", ErrBadMagic, got)
	}
	f.Version = b[2]
	if f.Version != Version {
		return Frame{}, 0, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, f.Version, Version)
	}
	f.Op = b[3]
	f.ID = binary.LittleEndian.Uint64(b[4:12])
	n := binary.LittleEndian.Uint32(b[12:16])
	if uint64(n) > uint64(maxPayload) {
		return Frame{}, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxPayload)
	}
	return f, int(n), nil
}

// DecodeFrame decodes one frame from the front of b without copying:
// the returned Frame's payload aliases b. n is the number of bytes
// consumed. maxPayload bounds the accepted payload length (<= 0 means
// DefaultMaxFrame); a length field beyond it fails with
// ErrFrameTooLarge.
func DecodeFrame(b []byte, maxPayload int) (f Frame, n int, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFrame
	}
	if len(b) < HeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: frame header (%d of %d bytes)", ErrTruncated, len(b), HeaderSize)
	}
	f, length, err := decodeHeader(b, maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b)-HeaderSize < length {
		return Frame{}, 0, fmt.Errorf("%w: frame body (%d of %d bytes)", ErrTruncated, len(b)-HeaderSize, length)
	}
	f.Payload = b[HeaderSize : HeaderSize+length]
	return f, HeaderSize + length, nil
}

// readBuffer is a Reader's buffer size: a burst of small pipelined
// frames arrives in one read, and a frame that fits is decoded where it
// lies.
const readBuffer = 64 << 10

// Reader pulls frames off a byte stream through one buffer: a frame
// that fits in it is returned in place, its payload aliasing the
// buffer, so a Frame is valid only until the next call to Next.
type Reader struct {
	br   *bufio.Reader
	max  int
	held int    // bytes of the buffer the last frame returned still occupies
	big  []byte // the payload of a frame larger than the buffer, copied out
}

// NewReader wraps r, which needs no buffering of its own. maxPayload
// bounds accepted frame payloads (<= 0 means DefaultMaxFrame); memory
// grows to the largest frame actually seen, never to a hostile length
// field.
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, readBuffer), max: maxPayload}
}

// Buffered reports whether a whole frame is already in the buffer, so
// that Next will return it without reading from the stream: the frames
// of one burst are those Next yields until Buffered turns false.
func (r *Reader) Buffered() bool {
	n := r.br.Buffered() - r.held - HeaderSize
	if n < 0 {
		return false
	}
	b, _ := r.br.Peek(r.held + HeaderSize) // buffered: cannot fail
	return uint64(binary.LittleEndian.Uint32(b[r.held+12:])) <= uint64(n)
}

// Next reads one frame. io.EOF means the peer closed cleanly between
// frames; a partial frame surfaces as io.ErrUnexpectedEOF. Nothing is
// allocated or copied unless the frame is larger than the buffer.
func (r *Reader) Next() (Frame, error) {
	r.br.Discard(r.held) // the last frame's bytes, lent out until now; buffered, so it cannot fail
	r.held = 0
	hdr, err := r.br.Peek(HeaderSize)
	if err != nil {
		if len(hdr) > 0 {
			err = torn(err)
		}
		return Frame{}, err
	}
	f, length, err := decodeHeader(hdr, r.max)
	if err != nil {
		return Frame{}, err
	}
	if size := HeaderSize + length; size <= r.br.Size() {
		b, err := r.br.Peek(size)
		if err != nil {
			return Frame{}, torn(err)
		}
		r.held, f.Payload = size, b[HeaderSize:]
		return f, nil
	}
	r.br.Discard(HeaderSize) // just peeked
	if cap(r.big) < length {
		r.big = make([]byte, length)
	}
	f.Payload = r.big[:length]
	if _, err := io.ReadFull(r.br, f.Payload); err != nil {
		return Frame{}, torn(err)
	}
	return f, nil
}

// torn turns the end of the stream inside a frame into
// io.ErrUnexpectedEOF.
func torn(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
