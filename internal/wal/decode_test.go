package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"thedb/internal/storage"
)

// entryBytes builds a raw entry payload: the kind byte, then each
// field as a uvarint.
func entryBytes(kind byte, fields ...uint64) []byte {
	b := []byte{kind}
	for _, f := range fields {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// A CRC-valid frame that does not decode is damage like any other:
// strict recovery refuses it with its offset and leaves the catalog
// alone, salvage truncates the stream there. A declared count is
// checked against the bytes present before anything is allocated, and
// a payload holds exactly one entry.
func TestUndecodableFrameIsDamage(t *testing.T) {
	ts := storage.MakeTS(3, 1)
	cases := map[string][]byte{
		"write declaring 2^40 columns":    entryBytes(KindWrite, ts, 0, 7, 1<<40, 0, 1, 2),
		"command declaring 2^40 args":     entryBytes(KindCommand, ts, 1, 'P', 1<<40, 0),
		"commit with one trailing byte":   entryBytes(KindCommit, ts, 0),
		"string longer than the frame":    entryBytes(KindCommand, ts, 1<<40, 'P'),
		"seal of an epoch beyond 32 bits": entryBytes(KindSeal, 1<<32),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			sealed := oneWorkerStream(t, 100, []uint32{1, 2}, true)
			stream := AppendFrame(append([]byte(nil), sealed...), payload)
			at := int64(len(sealed))

			cat := newCatalog()
			_, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(stream)}, RecoverOptions{})
			var ce *CorruptionError
			if !errors.As(err, &ce) || ce.Stream != 0 || ce.Offset != at {
				t.Fatalf("strict recovery error = %v, want *CorruptionError at byte %d", err, at)
			}
			if tab, _ := cat.Table("T"); tab.Len() != 0 {
				t.Fatal("strict recovery mutated the catalog before failing")
			}

			res, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(stream)}, RecoverOptions{Salvage: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Damage) != 1 || res.Damage[0].Offset != at || res.AppliedGroups != 2 {
				t.Fatalf("salvage = %+v, want 2 groups applied and the stream cut at byte %d", res, at)
			}
			if !keyVisible(t, cat, 101) || !keyVisible(t, cat, 102) {
				t.Fatal("salvage lost the groups before the damage")
			}
		})
	}
}

// goldenValueLog is the stream TestGoldenValueLogBytes pins: an insert
// of every value kind, a two-column write, a commit and a seal.
const goldenValueLog = "20000000410ececc028780808030016305015302808080808080808240030668c3a96c6c6f03000015000000ef6e7dfd01878080803001630200018080808080400203017806000000c8f69cde0587808080300200000014d5fe8b0603"

// encodeEntry writes e through the WAL's own writer and returns the
// frame's payload.
func encodeEntry(t *testing.T, e logEntry) []byte {
	var buf bytes.Buffer
	wl := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf }).Worker(0)
	var err error
	switch e.kind {
	case KindWrite:
		err = wl.LogWrite(e.ts, e.table, e.key, e.cols, e.vals)
	case KindInsert:
		err = wl.LogInsert(e.ts, e.table, e.key, e.tuple)
	case KindDelete:
		err = wl.LogDelete(e.ts, e.table, e.key)
	case KindCommand:
		err = wl.LogCommand(e.ts, e.proc, e.args)
	case KindCommit:
		err = wl.EndCommit(e.ts)
	case KindSeal:
		err = wl.sealAndFlush(uint32(e.ts))
	}
	if err == nil {
		err = wl.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[frameHeaderSize:]
}

// FuzzDecodeEntry: no payload panics the entry decoder, and every
// payload that decodes is exactly what the writer emits for the
// decoded entry — nothing is skipped, nothing is read twice.
func FuzzDecodeEntry(f *testing.F) {
	stream, err := hex.DecodeString(goldenValueLog)
	if err != nil {
		f.Fatal(err)
	}
	frames, damage, err := InspectStream(bytes.NewReader(stream))
	if err != nil || damage != nil {
		f.Fatalf("inspect: err=%v damage=%v", err, damage)
	}
	for _, fi := range frames {
		f.Add(stream[fi.Offset+frameHeaderSize : fi.End])
	}
	f.Add(entryBytes(KindCommand, 9, 1, 'P', 1, 0))
	f.Add(entryBytes(KindDelete, 9, 0, 3))
	f.Add(entryBytes(KindWrite, 9, 0, 7, 1<<40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeEntry(payload)
		if err != nil {
			return
		}
		if got := encodeEntry(t, e); !bytes.Equal(got, payload) {
			t.Fatalf("payload %x decodes to %+v, which encodes to %x", payload, e, got)
		}
	})
}
