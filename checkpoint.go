package thedb

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/metrics"
)

// WALSet manages a directory of per-worker WAL generation files. Open
// one with OpenWALSet, pass it as Config.WALSet, and the database logs
// into rotating generation files that checkpoints truncate — instead
// of a single ever-growing stream per worker.
type WALSet = checkpoint.FileSet

// CheckpointInfo describes a published or loaded checkpoint image.
type CheckpointInfo = checkpoint.Info

// BootReport is the structured recovery summary DB.Boot returns; the
// server prints it at boot and serves it at /debug/recovery.
type BootReport = checkpoint.BootReport

// OpenWALSet opens (or creates) dir as a WAL generation directory:
// existing generation files become the recovery tail (BootStreams),
// and a fresh generation is created for each worker's live stream.
func OpenWALSet(dir string, workers int) (*WALSet, error) {
	return checkpoint.OpenFileSet(dir, workers, nil)
}

// CheckpointStats exposes the checkpoint subsystem's counters (also
// served as thedb_checkpoint_* by the obs plane).
func (db *DB) CheckpointStats() *metrics.Checkpoint { return &db.ckstats }

// checkpointSource builds the engine surface the checkpointer
// snapshots, validating that an online checkpoint is safe: value
// logging only (a fuzzy image plus command replay double-executes
// procedures; value replay is idempotent under the Thomas write rule)
// and a live durability frontier to gate publication on.
func (db *DB) checkpointSource() (checkpoint.Source, error) {
	eng := db.engine()
	src := checkpoint.Source{Catalog: db.catalog, CurrentEpoch: eng.Epoch().Current}
	if !db.started {
		src.Quiesced = true
		return src, nil
	}
	if db.logger == nil {
		return src, fmt.Errorf("thedb: online checkpoint requires durability (Config.LogSink or Config.WALSet)")
	}
	if db.cfg.LogMode == CommandLogging {
		return src, fmt.Errorf("thedb: online checkpoint requires value logging (command replay of a fuzzy image is not idempotent)")
	}
	src.DurableEpoch = eng.DurableEpoch
	src.DurabilityLost = eng.DurabilityLost
	return src, nil
}

// ErrCheckpointDir reports a checkpoint directory other than the WAL
// set's. A round rotates and truncates the set's generations, and Boot
// looks for the image that covers them only in the set's directory.
var ErrCheckpointDir = errors.New("thedb: checkpoints of a database with a WAL set go in the set's directory")

// checkDir refuses a checkpoint directory that is not the WAL set's,
// comparing absolute, cleaned paths.
func (db *DB) checkDir(dir string) error {
	if db.cfg.WALSet == nil {
		return nil
	}
	want, err := filepath.Abs(db.cfg.WALSet.Dir())
	if err != nil {
		return err
	}
	got, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: %s is not %s", ErrCheckpointDir, got, want)
	}
	return nil
}

// checkpointOptions wires the WAL set (rotation + truncation) into a
// round when the logger is live to rotate.
func (db *DB) checkpointOptions(dir string) checkpoint.Options {
	opt := checkpoint.Options{Dir: dir, Stats: &db.ckstats}
	if db.started && db.cfg.WALSet != nil && db.logger != nil {
		opt.Files = db.cfg.WALSet
		opt.Log = db.logger
	}
	return opt
}

// Checkpoint takes one checkpoint round into dir: scan every table,
// publish checkpoint-<seq>.ckpt crash-atomically (temp file, fsync,
// rename), prune to the two newest images, and — when running with a
// WALSet — rotate the log onto a fresh generation and delete
// generations the new watermark covers.
//
// Running engine: the scan is online (no stall; per-record seqlock
// snapshots) and the image is published only once every epoch it may
// contain is durable in the WAL. Stopped or not-yet-started engine:
// the scan is trivially consistent and the watermark is the current
// epoch. With a WALSet, dir must be the set's directory.
func (db *DB) Checkpoint(dir string) (*CheckpointInfo, error) {
	if err := db.checkDir(dir); err != nil {
		return nil, err
	}
	src, err := db.checkpointSource()
	if err != nil {
		return nil, err
	}
	c, err := checkpoint.New(src, db.checkpointOptions(dir))
	if err != nil {
		return nil, err
	}
	info, err := c.RunOnce()
	if err != nil {
		return nil, err
	}
	// A quiesced round cannot rotate a stopped logger; closed
	// generations below the watermark are still safe to drop.
	if src.Quiesced && db.cfg.WALSet != nil {
		if _, terr := db.cfg.WALSet.Truncate(info.Watermark, nil); terr != nil {
			return info, terr
		}
	}
	return info, nil
}

// CheckpointEvery starts a background checkpointer running one round
// every interval (see Checkpoint for round semantics). The database
// must be started with value logging. Stop it via StopCheckpoints or
// Close. Round failures are counted in CheckpointStats and retried
// next tick.
func (db *DB) CheckpointEvery(dir string, interval time.Duration) error {
	if err := db.checkDir(dir); err != nil {
		return err
	}
	if !db.started {
		return fmt.Errorf("thedb: CheckpointEvery requires a started database")
	}
	if db.ck != nil {
		return fmt.Errorf("thedb: a background checkpointer is already running")
	}
	src, err := db.checkpointSource()
	if err != nil {
		return err
	}
	opt := db.checkpointOptions(dir)
	opt.Interval = interval
	c, err := checkpoint.New(src, opt)
	if err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return err
	}
	db.ck = c
	return nil
}

// StopCheckpoints halts the background checkpointer, waiting out an
// in-flight round. No-op if none is running.
func (db *DB) StopCheckpoints() {
	if db.ck != nil {
		db.ck.Stop()
		db.ck = nil
	}
}

// RestoreCheckpoint loads the newest valid checkpoint image from dir
// into this (schema-complete, data-empty) database. Images are tried
// newest first; a damaged one is skipped in favor of its predecessor,
// whose missing suffix the WAL tail replay supplies. Returns
// (nil, nil) when dir holds no images — a fresh start. This is the
// image-loading step of Boot, which is the entry point for a WAL
// directory.
func (db *DB) RestoreCheckpoint(dir string) (*CheckpointInfo, error) {
	return checkpoint.LoadNewest(db.catalog, dir)
}
