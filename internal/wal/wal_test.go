package wal

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"

	"thedb/internal/storage"
)

func newCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name: "T",
		Columns: []storage.ColumnDef{
			{Name: "a", Kind: storage.KindInt},
			{Name: "b", Kind: storage.KindString},
		},
	})
	return cat
}

func TestValueLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)

	ts := storage.MakeTS(1, 5)
	if err := wl.BeginCommit(ts); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogInsert(ts, 0, 7, storage.Tuple{storage.Int(10), storage.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogWrite(ts, 0, 7, []int{0}, []storage.Value{storage.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if err := wl.EndCommit(ts); err != nil {
		t.Fatal(err)
	}
	ts2 := storage.MakeTS(1, 9)
	if err := wl.BeginCommit(ts2); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogDelete(ts2, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := wl.EndCommit(ts2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cat := newCatalog()
	tab, _ := cat.Table("T")
	tab.Put(3, storage.Tuple{storage.Int(1), storage.Str("gone")}, 0)
	res, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(buf.Bytes())}, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commands) != 0 {
		t.Fatalf("value log produced %d commands", len(res.Commands))
	}
	rec, ok := tab.Peek(7)
	if !ok || !rec.Visible() {
		t.Fatal("inserted record missing after recovery")
	}
	if got := rec.Tuple()[0].Int(); got != 11 {
		t.Fatalf("a = %d, want 11 (write after insert)", got)
	}
	if got := rec.Tuple()[1].Str(); got != "x" {
		t.Fatalf("b = %q", got)
	}
	if drec, _ := tab.Peek(3); drec.Visible() {
		t.Fatal("deleted record still visible")
	}
}

func TestThomasWriteRule(t *testing.T) {
	mkStream := func(ts uint64, val int64) []byte {
		var buf bytes.Buffer
		l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
		wl := l.Worker(0)
		_ = wl.BeginCommit(ts)
		_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(val)})
		_ = wl.EndCommit(ts)
		_ = l.Close()
		return buf.Bytes()
	}
	newer := mkStream(storage.MakeTS(2, 1), 222)
	older := mkStream(storage.MakeTS(1, 1), 111)

	// Replay newer first, then older: the older write must be
	// discarded, so stream replay order does not matter.
	cat := newCatalog()
	tab, _ := cat.Table("T")
	tab.Put(1, storage.Tuple{storage.Int(0), storage.Str("")}, 0)
	if _, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(newer), bytes.NewReader(older)}, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	rec, _ := tab.Peek(1)
	if got := rec.Tuple()[0].Int(); got != 222 {
		t.Fatalf("value = %d, want 222 (Thomas write rule)", got)
	}
	if rec.Timestamp() != storage.MakeTS(2, 1) {
		t.Fatal("timestamp not advanced to the newest writer")
	}
}

func TestRecoveryOrderIndependence(t *testing.T) {
	mk := func(order []uint64) storage.Tuple {
		streams := make([][]byte, len(order))
		for i, ts := range order {
			var buf bytes.Buffer
			l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
			wl := l.Worker(0)
			_ = wl.BeginCommit(ts)
			_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(int64(ts))})
			_ = wl.EndCommit(ts)
			_ = l.Close()
			streams[i] = buf.Bytes()
		}
		cat := newCatalog()
		tab, _ := cat.Table("T")
		tab.Put(1, storage.Tuple{storage.Int(0), storage.Str("")}, 0)
		var readers []io.Reader
		for _, s := range streams {
			readers = append(readers, bytes.NewReader(s))
		}
		if _, err := RecoverStreams(cat, readers, RecoverOptions{}); err != nil {
			t.Fatal(err)
		}
		rec, _ := tab.Peek(1)
		return rec.Tuple()
	}
	a := mk([]uint64{5, 9, 3})
	b := mk([]uint64{3, 5, 9})
	c := mk([]uint64{9, 3, 5})
	if !a.Equal(b) || !b.Equal(c) {
		t.Fatalf("recovery depends on stream order: %v %v %v", a, b, c)
	}
	if a[0].Int() != 9 {
		t.Fatalf("final value = %d, want 9", a[0].Int())
	}
}

func TestCommandLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(CommandLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts)
	if err := wl.LogCommand(ts, "Transfer", []storage.Value{storage.Int(1), storage.Str("x"), storage.Float(2.5)}); err != nil {
		t.Fatal(err)
	}
	_ = wl.EndCommit(ts)
	_ = l.Close()

	res, err := RecoverStreams(newCatalog(), []io.Reader{bytes.NewReader(buf.Bytes())}, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commands) != 1 {
		t.Fatalf("commands = %d", len(res.Commands))
	}
	c := res.Commands[0]
	if c.TS != ts || c.Proc != "Transfer" || len(c.Args) != 3 {
		t.Fatalf("command = %+v", c)
	}
	if c.Args[0].Int() != 1 || c.Args[1].Str() != "x" || c.Args[2].Float() != 2.5 {
		t.Fatalf("args = %v", c.Args)
	}
}

func TestEpochGroupCommitFlushes(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)

	// Entries within one epoch stay buffered (nothing reaches the
	// sink before the group boundary or an explicit flush).
	ts1 := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts1)
	_ = wl.LogWrite(ts1, 0, 1, []int{0}, []storage.Value{storage.Int(1)})
	_ = wl.EndCommit(ts1)
	if buf.Len() != 0 {
		t.Fatal("entries reached the sink before the epoch closed")
	}
	// Crossing into epoch 2 flushes the epoch-1 group.
	ts2 := storage.MakeTS(2, 1)
	_ = wl.BeginCommit(ts2)
	if buf.Len() == 0 {
		t.Fatal("epoch boundary did not flush the previous group")
	}
	_ = l.Close()
}

// TestGoldenValueLogBytes pins the value log's bytes for one commit
// group carrying every value kind. The hex was produced by the
// 32-byte-Value representation this format was defined under: a
// change to the in-memory row must leave old logs replayable.
func TestGoldenValueLogBytes(t *testing.T) {
	const want = "20000000410ececc028780808030016305015302808080808080808240030668c3a96c6c6f03000015000000ef6e7dfd01878080803001630200018080808080400203017806000000c8f69cde0587808080300200000014d5fe8b0603"
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(3, 7)
	row := storage.Tuple{storage.Int(-42), storage.Float(2.5), storage.Str("héllo"), storage.Str(""), storage.Null}
	for _, err := range []error{
		wl.BeginCommit(ts),
		wl.LogInsert(ts, 1, 99, row),
		wl.LogWrite(ts, 1, 99, []int{0, 2}, []storage.Value{storage.Int(1 << 40), storage.Str("x")}),
		wl.EndCommit(ts),
		l.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("value log bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestInsertWidthMismatchRejected: an insert logged under a schema of
// another width must fail recovery before any mutation — a record's
// width is fixed, and installing the image would panic mid-replay.
func TestInsertWidthMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(1, 1)
	for _, err := range []error{
		wl.BeginCommit(ts),
		wl.LogInsert(ts, 0, 7, storage.Tuple{storage.Int(1)}),
		wl.EndCommit(ts),
		l.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	cat := newCatalog()
	if _, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(buf.Bytes())}, RecoverOptions{}); err == nil {
		t.Fatal("one-column insert into a two-column table replayed")
	}
	if tab, _ := cat.Table("T"); tab.Len() != 0 {
		t.Fatal("rejected log mutated the catalog")
	}
}
