// Package fault provides the repo's fault-injection machinery, in two
// halves. Writer wraps a WAL sink with the storage failures the
// durability tests inject: a write error that sticks once armed, and
// scripted Sync results. (A whole-machine crash — torn frames, then
// bytes swallowed while success is reported — is statecheck.Crasher's
// job.) Schedule (schedule.go) is the protocol-level chaos injector: a
// seeded, deterministic source of scheduling perturbations the engine
// consults at protocol checkpoints to force adversarial interleavings
// (DESIGN.md §8.1).
package fault

import (
	"io"
	"sync"
)

// Writer wraps an io.Writer (a WAL sink) with injectable failures.
// It is safe for concurrent use: the epoch advancer and a worker's
// stream flush may hit the same sink.
//
// The zero fault set passes everything through; arm a write error
// with FailAt, and script Sync results with ScriptSync.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	err error // returned by every Write once armed

	syncScript []error
	syncCalls  int
}

// NewWriter wraps w with no fault armed.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// FailAt arms the writer: every later Write delivers nothing and
// returns err.
func (f *Writer) FailAt(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

// ScriptSync queues results for upcoming Sync calls (nil entries
// mean success). Once the script drains, Sync succeeds.
func (f *Writer) ScriptSync(errs ...error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncScript = append(f.syncScript, errs...)
}

// Write implements io.Writer with the armed fault applied.
func (f *Writer) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return 0, f.err
	}
	return f.w.Write(p)
}

// Sync implements the wal.Syncer contract, consuming the scripted
// results in order.
func (f *Writer) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncCalls++
	if len(f.syncScript) > 0 {
		err := f.syncScript[0]
		f.syncScript = f.syncScript[1:]
		return err
	}
	return nil
}

// SyncCalls returns how many times Sync has been invoked.
func (f *Writer) SyncCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncCalls
}
