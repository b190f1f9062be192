package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"thedb/internal/storage"
)

// Every log entry travels inside a checksummed frame so recovery can
// tell a torn tail (expected after a crash) from silent corruption:
//
//	[payload length: uint32 LE][CRC32C(payload): uint32 LE][payload]
//
// The payload is one wire entry (kind byte + body). Frames carry no
// sequence numbers: per-worker streams are strictly sequential, and
// the commit/seal entries inside the payloads provide the ordering
// recovery needs.
const frameHeaderSize = 8

// MaxFrameSize bounds a log frame's payload (a checkpoint image, read
// through the same FrameReader, passes its own bound). A length field
// above it is corruption, not an allocation request.
const MaxFrameSize = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptionError reports an unreadable region of a log stream.
// Offset is the byte offset of the frame that failed to parse. Tail
// distinguishes clean tail damage — a frame cut short by a crash,
// which salvage-mode recovery tolerates — from corruption in the
// middle of a stream with intact data after it.
type CorruptionError struct {
	Stream int   // index into the streams slice handed to recovery
	Offset int64 // byte offset of the frame that failed to parse
	Tail   bool  // torn tail (expected after a crash) vs mid-stream
	Reason string
}

// Error formats the damage report.
func (e *CorruptionError) Error() string {
	kind := "mid-stream corruption"
	if e.Tail {
		kind = "torn tail"
	}
	return fmt.Sprintf("wal: %s in stream %d at byte %d: %s", kind, e.Stream, e.Offset, e.Reason)
}

// AppendFrame wraps payload in a length-prefixed CRC32C frame. The
// checkpoint image is framed the same way.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FrameReader pulls checksummed frames off a stream, tracking byte
// offsets. Parse failures come back as *CorruptionError (with Stream
// left for the caller to fill); only genuine I/O errors from the
// underlying reader surface as themselves.
type FrameReader struct {
	br  *bufio.Reader
	max uint32 // payload bound: a longer length field is corruption
	off int64  // offset of the next unread byte
	buf []byte
}

// NewFrameReader reads frames from r whose payloads are at most
// maxPayload bytes (MaxFrameSize for log streams).
func NewFrameReader(r io.Reader, maxPayload uint32) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 1<<16), max: maxPayload}
}

// Next returns the next frame's payload (valid until the following
// call) and the byte offset of its header. io.EOF means a clean end.
func (fr *FrameReader) Next() (payload []byte, frameOff int64, err error) {
	frameOff = fr.off
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, frameOff, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, frameOff, &CorruptionError{Offset: frameOff, Tail: true, Reason: "truncated frame header"}
		}
		return nil, frameOff, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > fr.max {
		return nil, frameOff, &CorruptionError{Offset: frameOff, Tail: fr.atEOF(),
			Reason: fmt.Sprintf("implausible frame length %d", length)}
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	fr.buf = fr.buf[:length]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, frameOff, &CorruptionError{Offset: frameOff, Tail: true, Reason: "truncated frame body"}
		}
		return nil, frameOff, err
	}
	if got := crc32.Checksum(fr.buf, castagnoli); got != want {
		return nil, frameOff, &CorruptionError{Offset: frameOff, Tail: fr.atEOF(),
			Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
	}
	fr.off += frameHeaderSize + int64(length)
	return fr.buf, frameOff, nil
}

// atEOF reports whether no bytes follow the current read position —
// the discriminator between tail damage and mid-stream corruption.
func (fr *FrameReader) atEOF() bool {
	_, err := fr.br.Peek(1)
	return err != nil
}

// FrameInfo describes one intact frame of a log stream. It backs
// offline inspection and the crash-torture tests, which need the
// exact frame boundaries to enumerate truncation points.
type FrameInfo struct {
	Offset    int64  // byte offset of the frame header
	End       int64  // byte offset just past the frame
	Kind      byte   // entry kind (KindWrite .. KindSeal)
	TS        uint64 // commit timestamp of entry frames (0 for seals)
	SealEpoch uint32 // sealed epoch for KindSeal frames (0 otherwise)
}

// InspectStream walks a stream's frames without applying anything.
// It returns the intact frames in order, plus the damage that
// terminated the walk (nil after a clean EOF). The error return is
// reserved for I/O failures of the reader itself.
func InspectStream(r io.Reader) ([]FrameInfo, *CorruptionError, error) {
	fr := NewFrameReader(r, MaxFrameSize)
	var frames []FrameInfo
	for {
		payload, off, err := fr.Next()
		if err == io.EOF {
			return frames, nil, nil
		}
		var ce *CorruptionError
		if errors.As(err, &ce) {
			return frames, ce, nil
		}
		if err != nil {
			return frames, nil, err
		}
		d := storage.NewDecoder(payload)
		fi := FrameInfo{Offset: off, End: fr.off, Kind: d.Byte()}
		if n := d.Uvarint(); fi.Kind == KindSeal {
			fi.SealEpoch = uint32(n)
		} else {
			fi.TS = n
		}
		frames = append(frames, fi)
	}
}
