package fault

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestPassThrough(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		n, err := w.Write([]byte("abc"))
		if n != 3 || err != nil {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
	}
	if buf.String() != "abcabcabc" {
		t.Fatalf("buf=%q", buf.String())
	}
}

func TestWriteErrorMode(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Write([]byte("abc")); err != nil {
		t.Fatalf("pre-fault write: %v", err)
	}
	boom := errors.New("boom")
	w.FailAt(boom)
	for i := 0; i < 2; i++ {
		if n, err := w.Write([]byte("def")); n != 0 || !errors.Is(err, boom) {
			t.Fatalf("write %d after FailAt: n=%d err=%v, want 0, boom", i, n, err)
		}
	}
	if buf.String() != "abc" {
		t.Fatalf("bytes leaked through an armed error: %q", buf.String())
	}
}

func TestScriptedSync(t *testing.T) {
	w := NewWriter(io.Discard)
	e1, e2 := errors.New("t1"), errors.New("t2")
	w.ScriptSync(e1, nil, e2)
	if err := w.Sync(); !errors.Is(err, e1) {
		t.Fatalf("sync 1: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync 2: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, e2) {
		t.Fatalf("sync 3: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync after script drained: %v", err)
	}
	if w.SyncCalls() != 4 {
		t.Fatalf("sync calls = %d", w.SyncCalls())
	}
}
