// Package wal implements THEDB's durability mechanisms (paper
// Appendix C): per-worker value logging or command logging with
// epoch-based group commit, full-database checkpoints, and parallel
// recovery applying the Thomas write rule.
//
// Each worker owns a private log stream; entries carry the commit
// timestamp whose high half is the global epoch, so all transactions
// of one epoch are persisted as a group. Recovery merges the streams
// in any order: a write is applied only if its timestamp exceeds the
// record's current timestamp (Thomas write rule), so replay
// parallelizes trivially.
//
// On the wire every entry is wrapped in a length-prefixed CRC32C
// frame (see frame.go), and streams carry seal entries: seal(E) in a
// stream promises that no entry with epoch ≤ E appears after it, so
// recovery can compute the durable epoch — the highest epoch every
// stream has sealed and synced — and salvage a crash-torn log back
// to an epoch-consistent committed prefix (see recover.go).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"thedb/internal/storage"
)

// Mode selects what gets logged.
type Mode int

// Logging modes (Fig. 16 compares them).
const (
	// ValueLogging logs each record write (after-image of the
	// written columns).
	ValueLogging Mode = iota
	// CommandLogging logs the procedure name and arguments.
	CommandLogging
)

// String names the mode.
func (m Mode) String() string {
	if m == CommandLogging {
		return "command"
	}
	return "value"
}

// Entry kinds on the wire (the first payload byte of each frame).
const (
	KindWrite   byte = 1
	KindInsert  byte = 2
	KindDelete  byte = 3
	KindCommand byte = 4
	KindCommit  byte = 5
	// KindSeal marks an epoch boundary: seal(E) promises that no
	// entry with epoch ≤ E follows it in this stream.
	KindSeal byte = 6
)

// Syncer is the optional sink extension for stable storage: sinks
// that implement it (os.File does) are synced when an epoch is
// hardened, and an epoch is only reported durable once every stream's
// sink has been synced past its seal.
type Syncer interface {
	Sync() error
}

// Logger coordinates per-worker log streams.
type Logger struct {
	mode    Mode
	workers []*WorkerLog

	// sinkMu guards sinks against concurrent rotation: the epoch
	// advancer holds it for the whole sync pass, and Rotate holds it
	// while swapping a sink and retiring the old one, so a sink is
	// never synced after its file has been handed back for closing.
	sinkMu sync.Mutex
	sinks  []io.Writer
}

// NewLogger builds a logger with one stream per worker; sink is
// called once per worker to obtain its output. Sinks must not be
// shared between workers: streams flush concurrently.
func NewLogger(mode Mode, workers int, sink func(worker int) io.Writer) *Logger {
	l := &Logger{mode: mode}
	for i := 0; i < workers; i++ {
		s := sink(i)
		l.sinks = append(l.sinks, s)
		l.workers = append(l.workers, &WorkerLog{
			mode: mode,
			w:    bufio.NewWriterSize(s, 1<<16),
		})
	}
	return l
}

// Mode returns the logging mode.
func (l *Logger) Mode() Mode { return l.mode }

// Stats holds cumulative frame-write counters across all streams.
type Stats struct {
	Frames int64 // frames appended (entries, commits, seals)
	Bytes  int64 // framed bytes appended (payload + frame overhead)
}

// Stats sums the per-stream counters. Safe to call while workers
// append: each stream's counters are read under its own mutex, so the
// totals are a per-stream-consistent (not cross-stream-atomic) view.
func (l *Logger) Stats() Stats {
	var s Stats
	for _, wl := range l.workers {
		wl.mu.Lock()
		s.Frames += wl.frames
		s.Bytes += wl.bytes
		wl.mu.Unlock()
	}
	return s
}

// Worker returns worker i's log stream.
func (l *Logger) Worker(i int) *WorkerLog { return l.workers[i] }

// SealAndSync seals every stream at the given epoch (clamped so an
// in-flight commit group is never covered by its own seal), flushes
// them, and syncs every sink that supports it. It is the epoch
// advancer's hardening step: once it returns nil, every transaction
// with commit epoch ≤ epoch is on stable storage in every stream.
// All per-stream and per-sink failures are aggregated with
// errors.Join rather than masked by the first one.
func (l *Logger) SealAndSync(epoch uint32) error {
	var errs []error
	for i, wl := range l.workers {
		if err := wl.sealAndFlush(epoch); err != nil {
			errs = append(errs, fmt.Errorf("wal: stream %d: %w", i, err))
		}
	}
	errs = append(errs, l.syncSinks())
	return errors.Join(errs...)
}

// syncSinks syncs every sink implementing Syncer, aggregating errors.
// It holds sinkMu across the whole pass so a concurrent Rotate cannot
// close a file out from under an in-flight fsync.
func (l *Logger) syncSinks() error {
	l.sinkMu.Lock()
	defer l.sinkMu.Unlock()
	var errs []error
	for i, s := range l.sinks {
		sy, ok := s.(Syncer)
		if !ok {
			continue
		}
		if err := sy.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("wal: sink %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Rotate redirects stream i to a fresh sink at a frame and commit
// group boundary: it waits for any in-flight commit group to close,
// flushes the stream's buffer into the old sink (so the old file ends
// on a complete frame — splitting a frame across generation files
// would destroy the logical stream when the earlier file is
// truncated), swaps the sink, and hands the old one to retire (called
// with the rotation locks held, so no concurrent sync can touch it).
// It returns the highest epoch the old sink may contain, which is the
// watermark comparison key for truncating it later. The stream's seal
// state carries over: generation files concatenate into one logical
// stream at recovery.
func (l *Logger) Rotate(i int, next io.Writer, retire func(prev io.Writer) error) (maxEpoch uint32, err error) {
	wl := l.workers[i]
	for {
		wl.mu.Lock()
		if !wl.inGroup {
			break
		}
		wl.mu.Unlock()
		runtime.Gosched()
	}
	defer wl.mu.Unlock()
	if err := wl.w.Flush(); err != nil {
		return 0, err
	}
	maxEpoch = wl.lastEpoch
	if wl.sealed > maxEpoch {
		maxEpoch = wl.sealed
	}
	l.sinkMu.Lock()
	defer l.sinkMu.Unlock()
	prev := l.sinks[i]
	l.sinks[i] = next
	wl.w = bufio.NewWriterSize(next, 1<<16)
	if retire != nil {
		if err := retire(prev); err != nil {
			return maxEpoch, err
		}
	}
	return maxEpoch, nil
}

// Close seals every stream at the highest epoch any stream has
// reached (the caller must have quiesced the workers), flushes them,
// and syncs the sinks. Per-stream failures are collected with
// errors.Join so a multi-stream failure isn't masked by the first.
func (l *Logger) Close() error {
	var maxE uint32
	for _, wl := range l.workers {
		wl.mu.Lock()
		if wl.lastEpoch > maxE {
			maxE = wl.lastEpoch
		}
		if wl.sealed > maxE {
			maxE = wl.sealed
		}
		wl.mu.Unlock()
	}
	var errs []error
	for i, wl := range l.workers {
		if err := wl.closeAt(maxE); err != nil {
			errs = append(errs, fmt.Errorf("wal: stream %d: %w", i, err))
		}
	}
	errs = append(errs, l.syncSinks())
	return errors.Join(errs...)
}

// WorkerLog is a single worker's private log stream. Entry writers
// are intended for the owning worker (one goroutine); the internal
// mutex exists so the epoch advancer can seal, flush and sync a
// stream concurrently with its owner's appends.
type WorkerLog struct {
	mode Mode

	mu         sync.Mutex
	w          *bufio.Writer
	buf        []byte // entry scratch
	frame      []byte // frame scratch
	lastEpoch  uint32 // epoch of the latest commit group
	sealed     uint32 // highest epoch sealed in this stream
	inGroup    bool   // between BeginCommit and EndCommit
	hasEntries bool   // stream has ever received a frame
	frames     int64  // frames appended to this stream
	bytes      int64  // framed bytes appended to this stream
}

// BeginCommit opens a transaction's log record group. In the epoch
// group-commit scheme, crossing into a new epoch first seals the
// prior epochs — per-worker commit timestamps are monotone, so once
// a commit of epoch E begins, no entry with epoch < E can ever
// follow in this stream — and flushes everything buffered for them.
func (wl *WorkerLog) BeginCommit(ts uint64) error {
	epoch, _ := storage.SplitTS(ts)
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if wl.hasEntries && epoch > wl.lastEpoch {
		if err := wl.sealLocked(epoch - 1); err != nil {
			return err
		}
		if err := wl.w.Flush(); err != nil {
			return err
		}
	}
	wl.lastEpoch = epoch
	wl.inGroup = true
	return nil
}

// LogWrite appends a value-log entry for an update of the given
// columns.
func (wl *WorkerLog) LogWrite(ts uint64, table int, key storage.Key, cols []int, vals []storage.Value) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	wl.buf = wl.buf[:0]
	wl.buf = append(wl.buf, KindWrite)
	wl.buf = binary.AppendUvarint(wl.buf, ts)
	wl.buf = binary.AppendUvarint(wl.buf, uint64(table))
	wl.buf = binary.AppendUvarint(wl.buf, uint64(key))
	wl.buf = binary.AppendUvarint(wl.buf, uint64(len(cols)))
	for i, c := range cols {
		wl.buf = binary.AppendUvarint(wl.buf, uint64(c))
		wl.buf = storage.AppendValue(wl.buf, vals[i])
	}
	return wl.writeFrameLocked(wl.buf)
}

// LogInsert appends a value-log entry creating a record.
func (wl *WorkerLog) LogInsert(ts uint64, table int, key storage.Key, tuple storage.Tuple) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	wl.buf = wl.buf[:0]
	wl.buf = append(wl.buf, KindInsert)
	wl.buf = binary.AppendUvarint(wl.buf, ts)
	wl.buf = binary.AppendUvarint(wl.buf, uint64(table))
	wl.buf = binary.AppendUvarint(wl.buf, uint64(key))
	wl.buf = storage.AppendValues(wl.buf, tuple)
	return wl.writeFrameLocked(wl.buf)
}

// LogDelete appends a value-log entry removing a record.
func (wl *WorkerLog) LogDelete(ts uint64, table int, key storage.Key) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	wl.buf = wl.buf[:0]
	wl.buf = append(wl.buf, KindDelete)
	wl.buf = binary.AppendUvarint(wl.buf, ts)
	wl.buf = binary.AppendUvarint(wl.buf, uint64(table))
	wl.buf = binary.AppendUvarint(wl.buf, uint64(key))
	return wl.writeFrameLocked(wl.buf)
}

// LogCommand appends a command-log entry: the stored procedure's name
// and argument vector.
func (wl *WorkerLog) LogCommand(ts uint64, procName string, args []storage.Value) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	wl.buf = wl.buf[:0]
	wl.buf = append(wl.buf, KindCommand)
	wl.buf = binary.AppendUvarint(wl.buf, ts)
	wl.buf = storage.AppendString(wl.buf, procName)
	wl.buf = storage.AppendValues(wl.buf, args)
	return wl.writeFrameLocked(wl.buf)
}

// EndCommit closes the transaction's record group. Recovery only
// applies groups whose commit entry made it to the log; everything
// after the last commit entry of a stream is a torn group.
func (wl *WorkerLog) EndCommit(ts uint64) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	wl.buf = wl.buf[:0]
	wl.buf = append(wl.buf, KindCommit)
	wl.buf = binary.AppendUvarint(wl.buf, ts)
	err := wl.writeFrameLocked(wl.buf)
	wl.inGroup = false
	return err
}

// Flush forces buffered entries to the sink (end of epoch group).
func (wl *WorkerLog) Flush() error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	return wl.w.Flush()
}

// writeFrameLocked wraps payload in a checksummed frame and appends
// it to the stream buffer. Caller holds wl.mu.
func (wl *WorkerLog) writeFrameLocked(payload []byte) error {
	wl.frame = AppendFrame(wl.frame[:0], payload)
	wl.hasEntries = true
	wl.frames++
	wl.bytes += int64(len(wl.frame))
	_, err := wl.w.Write(wl.frame)
	return err
}

// sealLocked appends a seal entry for the given epoch if it advances
// the stream's seal. Caller holds wl.mu and guarantees that no entry
// with epoch ≤ the sealed epoch will be appended afterwards.
func (wl *WorkerLog) sealLocked(epoch uint32) error {
	if epoch == 0 || epoch <= wl.sealed {
		return nil
	}
	wl.buf = wl.buf[:0]
	wl.buf = append(wl.buf, KindSeal)
	wl.buf = binary.AppendUvarint(wl.buf, uint64(epoch))
	if err := wl.writeFrameLocked(wl.buf); err != nil {
		return err
	}
	wl.sealed = epoch
	return nil
}

// sealAndFlush seals the stream at target — clamped below an
// in-flight commit group's epoch, since that group's entries are
// still being appended — and flushes it to the sink.
func (wl *WorkerLog) sealAndFlush(target uint32) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if wl.inGroup && wl.lastEpoch <= target {
		if wl.lastEpoch == 0 {
			target = 0
		} else {
			target = wl.lastEpoch - 1
		}
	}
	if err := wl.sealLocked(target); err != nil {
		return err
	}
	return wl.w.Flush()
}

// closeAt seals the quiesced stream at the given epoch and flushes.
func (wl *WorkerLog) closeAt(epoch uint32) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if wl.hasEntries {
		if err := wl.sealLocked(epoch); err != nil {
			return err
		}
	}
	return wl.w.Flush()
}
