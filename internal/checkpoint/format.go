// Package checkpoint implements THEDB's online checkpoint subsystem
// (paper Appendix C, made non-blocking): slot-framed binary snapshots
// of the whole catalog taken while workers keep committing, published
// crash-atomically, plus the WAL generation files whose tail — the
// epochs above the newest checkpoint's watermark — is all a restart
// has to replay.
//
// On disk a checkpoint is a sequence of the WAL's CRC32C frames
// ([len u32 LE][crc32c u32 LE][payload]), written with wal.AppendFrame
// and read with wal.FrameReader under a 64 MiB payload bound; slot and
// footer payloads decode with storage.Decoder, like log entries:
//
//	header  magic, format version, schema digest, sealed-epoch
//	        watermark, table count, slot capacity
//	slot*   one table's rows in primary-key order, at most slotRows
//	        per slot, each row (key, ts, tuple)
//	footer  slot count, row count, max row epoch — so a truncated
//	        file can never masquerade as a short-but-valid image
//
// The watermark is the epoch-consistency contract with the WAL: every
// transaction with commit epoch ≤ watermark is fully contained in the
// image, so WAL generations whose maximum epoch is at or below it can
// be deleted, and recovery replays only generations above it. Rows
// with epochs above the watermark may also appear (the scan is fuzzy);
// the publisher guarantees they are durable in the WAL before the
// image becomes visible, so the tail replay always re-applies their
// commit groups in full (see Checkpointer).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"sort"

	"thedb/internal/storage"
	"thedb/internal/wal"
)

// Frame payload kinds.
const (
	kindHeader byte = 1
	kindSlot   byte = 2
	kindFooter byte = 3
)

// Magic identifies the checkpoint image format ("thedbck2").
const Magic uint64 = 0x7468656462636b32

// Version is the current format version.
const Version uint32 = 1

// slotRows is the slot capacity: rows per CRC-framed slot. Bounded so
// single-slot corruption is detectable at fine grain and decode
// buffers stay small.
const slotRows = 512

var ecma = crc64.MakeTable(crc64.ECMA)

// Header is a checkpoint file's decoded header frame.
type Header struct {
	Magic        uint64
	Version      uint32
	SchemaDigest uint64
	Watermark    uint32 // sealed-epoch watermark (see package doc)
	Tables       uint32
	SlotRows     uint32
}

// Info describes a written or loaded checkpoint image.
type Info struct {
	Path        string // file path ("" for raw streams)
	Seq         uint64 // publication sequence number (file name)
	Watermark   uint32 // sealed-epoch watermark
	MaxRowEpoch uint32 // highest commit epoch on any row in the image
	Rows        int64
	Bytes       int64
	Tables      int
}

// SchemaDigest hashes the catalog's schema shape — table names, order,
// column names and kinds, secondary index names — so a checkpoint is
// never loaded into a catalog it was not written from. The digest is
// deliberately insensitive to non-layout schema knobs (ranks, shard
// shifts, partition functions): those change behavior, not the stored
// bytes.
func SchemaDigest(catalog *storage.Catalog) uint64 {
	var b []byte
	for _, tab := range catalog.Tables() {
		s := tab.Schema()
		b = storage.AppendString(b, s.Name)
		b = binary.AppendUvarint(b, uint64(len(s.Columns)))
		for _, c := range s.Columns {
			b = storage.AppendString(b, c.Name)
			b = append(b, byte(c.Kind))
		}
		b = binary.AppendUvarint(b, uint64(len(s.Secondaries)))
		for _, sec := range s.Secondaries {
			b = storage.AppendString(b, sec.Name)
		}
	}
	return crc64.Checksum(b, ecma)
}

// row is one snapshotted record.
type row struct {
	key storage.Key
	ts  uint64
	t   storage.Tuple
}

// tableImage is one table's scanned rows, key-sorted.
type tableImage struct {
	id   int
	rows []row
}

// encodeHeader builds the header frame payload.
func encodeHeader(h Header) []byte {
	b := make([]byte, 0, 1+8+4+8+4+4+4)
	b = append(b, kindHeader)
	b = binary.LittleEndian.AppendUint64(b, h.Magic)
	b = binary.LittleEndian.AppendUint32(b, h.Version)
	b = binary.LittleEndian.AppendUint64(b, h.SchemaDigest)
	b = binary.LittleEndian.AppendUint32(b, h.Watermark)
	b = binary.LittleEndian.AppendUint32(b, h.Tables)
	b = binary.LittleEndian.AppendUint32(b, h.SlotRows)
	return b
}

func decodeHeader(payload []byte) (Header, error) {
	var h Header
	if len(payload) != 1+8+4+8+4+4+4 || payload[0] != kindHeader {
		return h, fmt.Errorf("checkpoint: malformed header frame")
	}
	h.Magic = binary.LittleEndian.Uint64(payload[1:])
	h.Version = binary.LittleEndian.Uint32(payload[9:])
	h.SchemaDigest = binary.LittleEndian.Uint64(payload[13:])
	h.Watermark = binary.LittleEndian.Uint32(payload[21:])
	h.Tables = binary.LittleEndian.Uint32(payload[25:])
	h.SlotRows = binary.LittleEndian.Uint32(payload[29:])
	return h, nil
}

// Write serializes images into w as a slot-framed checkpoint with the
// given watermark: one w.Write per slot and one for the footer, the
// header riding with the first of them. It returns the row count,
// byte count and maximum row epoch written. midSlot, when non-nil, is
// called once after the first slot frame (crash-point injection for
// the torture harness).
func Write(w io.Writer, catalog *storage.Catalog, watermark uint32, images []tableImage, midSlot func() error) (rows int64, n int64, maxRowEpoch uint32, err error) {
	frames := wal.AppendFrame(nil, encodeHeader(Header{
		Magic: Magic, Version: Version,
		SchemaDigest: SchemaDigest(catalog),
		Watermark:    watermark,
		Tables:       uint32(len(catalog.Tables())),
		SlotRows:     slotRows,
	}))
	var payload []byte
	slots := 0
	for _, img := range images {
		for lo := 0; lo < len(img.rows); lo += slotRows {
			hi := min(lo+slotRows, len(img.rows))
			payload = append(payload[:0], kindSlot)
			payload = binary.AppendUvarint(payload, uint64(img.id))
			payload = binary.AppendUvarint(payload, uint64(hi-lo))
			for _, r := range img.rows[lo:hi] {
				payload = binary.AppendUvarint(payload, uint64(r.key))
				payload = binary.AppendUvarint(payload, r.ts)
				payload = storage.AppendValues(payload, r.t)
				if e, _ := storage.SplitTS(r.ts); e > maxRowEpoch {
					maxRowEpoch = e
				}
				rows++
			}
			frames = wal.AppendFrame(frames, payload)
			if _, err = w.Write(frames); err != nil {
				return rows, n, maxRowEpoch, err
			}
			n += int64(len(frames))
			frames = frames[:0]
			if slots++; slots == 1 && midSlot != nil {
				if err := midSlot(); err != nil {
					return rows, n, maxRowEpoch, err
				}
			}
		}
	}
	payload = append(payload[:0], kindFooter)
	payload = binary.AppendUvarint(payload, uint64(slots))
	payload = binary.AppendUvarint(payload, uint64(rows))
	payload = binary.AppendUvarint(payload, uint64(maxRowEpoch))
	frames = wal.AppendFrame(frames, payload)
	_, err = w.Write(frames)
	return rows, n + int64(len(frames)), maxRowEpoch, err
}

// maxFrame bounds an image frame's payload: a slot of slotRows wide
// rows is far larger than a log entry, so the bound is the WAL's ×4.
const maxFrame = 1 << 26

// Load decodes and validates a checkpoint stream end to end — header,
// every slot's checksum, row count and column count, rows in
// ascending (table, key) order, footer totals, clean EOF — and only
// then installs the rows (storage.Installer, bypassing concurrency
// control). The catalog must hold the schema the image was written
// from (checked via the digest) and no data. On any error but a row
// the catalog already holds, the catalog is untouched.
func Load(catalog *storage.Catalog, r io.Reader) (*Info, error) {
	fr := wal.NewFrameReader(r, maxFrame)
	frame, err := nextFrame(fr)
	if err == io.EOF {
		return nil, fmt.Errorf("checkpoint: empty stream")
	}
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(frame)
	if err != nil {
		return nil, err
	}
	if h.Magic != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %016x", h.Magic)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d", h.Version)
	}
	if want := SchemaDigest(catalog); h.SchemaDigest != want {
		return nil, fmt.Errorf("checkpoint: schema digest %016x does not match catalog %016x", h.SchemaDigest, want)
	}
	if int(h.Tables) != len(catalog.Tables()) {
		return nil, fmt.Errorf("checkpoint: image has %d tables, catalog has %d", h.Tables, len(catalog.Tables()))
	}

	var slots []tableImage
	var rows int64
	var maxRowEpoch uint32
	var footer *[3]uint64 // slots, rows, max row epoch
	var last [2]uint64    // the previous row's (table, key): keys are unique and ascending
	for {
		if frame, err = nextFrame(fr); err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if footer != nil {
			return nil, fmt.Errorf("checkpoint: frame after footer")
		}
		d := storage.NewDecoder(frame)
		kind := d.Byte()
		switch kind {
		case kindSlot:
			tid, n := d.Uvarint(), d.Count()
			if tid >= uint64(h.Tables) || n > int(h.SlotRows) {
				return nil, fmt.Errorf("checkpoint: slot of %d rows in table %d; the image has %d tables of %d-row slots", n, tid, h.Tables, h.SlotRows)
			}
			ncols := len(catalog.TableByID(int(tid)).Schema().Columns)
			sl := tableImage{id: int(tid), rows: make([]row, 0, n)}
			for range n {
				key, ts := d.Uvarint(), d.Uvarint()
				if d.Err() == nil && rows > 0 && (tid < last[0] || tid == last[0] && key <= last[1]) {
					return nil, fmt.Errorf("checkpoint: row (table %d, key %d) out of order after (table %d, key %d)", tid, key, last[0], last[1])
				}
				last = [2]uint64{tid, key}
				ahead := d // the column count, checked before Values sizes the tuple
				if nc := ahead.Count(); ahead.Err() == nil && nc != ncols {
					return nil, fmt.Errorf("checkpoint: row of table %d has %d columns, schema has %d", tid, nc, ncols)
				}
				t := d.Values(nil)
				sl.rows = append(sl.rows, row{key: storage.Key(key), ts: ts, t: t})
				if e, _ := storage.SplitTS(ts); e > maxRowEpoch {
					maxRowEpoch = e
				}
				rows++
			}
			slots = append(slots, sl)
		case kindFooter:
			footer = &[3]uint64{d.Uvarint(), d.Uvarint(), d.Uvarint()}
		default:
			return nil, fmt.Errorf("checkpoint: bad frame kind %d", kind)
		}
		if err := d.Done(); err != nil {
			return nil, fmt.Errorf("checkpoint: frame of kind %d: %w", kind, err)
		}
	}
	if footer == nil {
		return nil, fmt.Errorf("checkpoint: missing footer (truncated image)")
	}
	if *footer != [3]uint64{uint64(len(slots)), uint64(rows), uint64(maxRowEpoch)} {
		return nil, fmt.Errorf("checkpoint: footer (slots, rows, max epoch) %v, image has (%d, %d, %d)",
			*footer, len(slots), rows, maxRowEpoch)
	}

	ins := storage.NewInstaller()
	for _, sl := range slots {
		tab := catalog.TableByID(sl.id)
		for _, r := range sl.rows {
			ins.Put(tab, r.key, r.t, r.ts)
		}
	}
	if err := ins.Wait(); err != nil {
		return nil, err
	}
	return &Info{Watermark: h.Watermark, Tables: int(h.Tables), Rows: rows, MaxRowEpoch: maxRowEpoch}, nil
}

// nextFrame reads one image frame; damage is reported in image terms
// (a byte offset), not as a log stream's CorruptionError.
func nextFrame(fr *wal.FrameReader) ([]byte, error) {
	payload, _, err := fr.Next()
	var ce *wal.CorruptionError
	if errors.As(err, &ce) {
		return nil, fmt.Errorf("checkpoint: frame at byte %d: %s", ce.Offset, ce.Reason)
	}
	return payload, err
}

// Scan snapshots every table of a live catalog without stalling
// writers: each record is read with the seqlock-style
// Record.StableSnapshot (timestamp and tuple as one consistent pair),
// invisible records are skipped, and rows are key-sorted for
// deterministic images. The result is fuzzy — rows may carry epochs
// above any single cut — which is exactly what the watermark/publish
// contract of the Checkpointer accounts for.
func Scan(catalog *storage.Catalog) []tableImage {
	images := make([]tableImage, 0, len(catalog.Tables()))
	for _, tab := range catalog.Tables() {
		img := tableImage{id: tab.ID()}
		tab.ForEach(func(k storage.Key, rec *storage.Record) bool {
			ts, t, visible := rec.StableSnapshot()
			if visible {
				img.rows = append(img.rows, row{key: k, ts: ts, t: t})
			}
			return true
		})
		sort.Slice(img.rows, func(i, j int) bool { return img.rows[i].key < img.rows[j].key })
		images = append(images, img)
	}
	return images
}
