package thedb

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/wal"
)

// Command is one decoded command-log entry (see CommandLogging).
type Command = wal.Command

// RecoverOptions selects strict or salvage recovery; see the wal
// package for the full contract.
type RecoverOptions = wal.RecoverOptions

// RecoveryReport carries the recovered command log plus salvage
// statistics: the durable epoch cut, applied/dropped/torn group
// counts, and the damage found in each stream.
type RecoveryReport = wal.RecoveryResult

// CorruptionError describes a damaged log frame: which stream, at
// what byte offset, and whether the damage is a torn tail (a crash
// mid-write) or mid-stream corruption (bit rot, truncation upstream).
type CorruptionError = wal.CorruptionError

// ReplayCommands re-executes command-log entries in commit-timestamp
// order through session 0. Command logging records the procedure name
// and argument vector of each committed transaction; because stored
// procedures are deterministic given their arguments and the database
// state, replaying them in the original commit order reconstructs the
// database (the approach the paper compares against value logging in
// Appendix C).
//
// Commands with equal timestamps (possible across streams from
// different log generations) are replayed in their input-slice order:
// the sort is stable. Replay stops at the first command that fails;
// commands replayed before the failure remain applied, so the caller
// should treat an error as "restore from scratch", not retry.
func (db *DB) ReplayCommands(cmds []Command) error {
	sorted := append([]Command(nil), cmds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })
	s := db.Session(0)
	for _, c := range sorted {
		if _, err := s.Run(c.Proc, c.Args...); err != nil {
			return fmt.Errorf("thedb: replaying %s@%d: %w", c.Proc, c.TS, err)
		}
	}
	return nil
}

// RecoverFromWith is the stream-only recovery primitive: it replays
// log streams over a database that holds the schema (tables created)
// and is not processing transactions. Value-log entries are applied
// with the Thomas write rule, command-log entries are re-executed in
// timestamp order (Appendix C). To restart from a WAL directory call
// Boot instead — it picks the image and bounds the tail by the image's
// watermark.
//
// image, when non-nil, is a checkpoint image (the format Checkpoint
// publishes) loaded first; commit groups at or below its watermark are
// then skipped. Without Salvage any log damage fails recovery with the
// log unapplied (an image, loaded first, may already be in place).
// With Salvage each stream is truncated at its first damaged frame and
// only commit groups within the epoch-consistent cut are applied (see
// RecoverOptions); the returned report carries the cut and per-stream
// damage.
//
// Before any command replays, the global epoch is seeded past
// opts.FromEpoch and every epoch in the image and the streams, so new
// commits land above everything recovered.
//
// If command replay fails partway the store holds an undefined mix of
// replayed and missing effects: the engine is stopped and the database
// poisoned — every subsequent transaction returns ErrRecoveryFailed
// (which the returned error wraps). Restore from scratch.
func (db *DB) RecoverFromWith(image io.Reader, logs []io.Reader, opts RecoverOptions) (*RecoveryReport, error) {
	var info *CheckpointInfo
	if image != nil {
		var err error
		if info, err = checkpoint.Load(db.catalog, image); err != nil {
			return nil, err
		}
	}
	rep, _, err := db.recoverLogs(info, logs, opts)
	return rep, err
}

// recoverLogs is the one replay under RecoverFromWith and Boot, over a
// catalog holding image info's rows (nil: none). It seeds the epoch
// once, past seed = max(opts.FromEpoch, watermark, max row epoch, the
// tail's MaxEpoch), before replaying commands: a commit inheriting a
// recovered record's higher epoch would otherwise sit above every seal
// the advancer writes and be dropped by the next salvage.
func (db *DB) recoverLogs(info *CheckpointInfo, logs []io.Reader, opts RecoverOptions) (rep *RecoveryReport, seed uint32, err error) {
	if info != nil {
		opts.FromEpoch = max(opts.FromEpoch, info.Watermark)
		seed = info.MaxRowEpoch
	}
	if rep, err = wal.RecoverStreams(db.catalog, logs, opts); err != nil {
		return nil, 0, err
	}
	if seed = max(seed, opts.FromEpoch, rep.MaxEpoch); seed > 0 {
		db.engine().SeedEpoch(seed + 1)
	}
	if len(rep.Commands) > 0 {
		db.Start() // command replay needs a running engine
		if err := db.ReplayCommands(rep.Commands); err != nil {
			db.poisoned.Store(true)
			if cerr := db.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return rep, seed, fmt.Errorf("%w: %w", ErrRecoveryFailed, err)
		}
	}
	return rep, seed, nil
}

// Boot restarts the database from its Config.WALSet — the one boot
// sequence (DESIGN.md §5.4): restore the newest valid checkpoint image in
// the set's directory, replay the generations found there above the
// image's watermark, seed the epoch past every epoch seen in the image
// or the tail, and tell the set that bound so later checkpoints can
// delete the replayed generations. opts.Salvage selects strict or
// salvage replay; opts.FromEpoch is set by Boot. Call it on a database
// that holds the schema and no data, before Start.
//
// An empty directory is a fresh start: the report names no checkpoint
// and counts no groups. A database without a WAL set is refused before
// anything is touched. On any other error the database may hold the
// image's rows and must be discarded.
func (db *DB) Boot(opts RecoverOptions) (*BootReport, error) {
	fs := db.cfg.WALSet
	if fs == nil {
		return nil, errors.New("thedb: Boot requires Config.WALSet")
	}
	start := time.Now()
	report := &BootReport{Salvaged: opts.Salvage}

	info, err := db.RestoreCheckpoint(fs.Dir())
	if err != nil {
		return nil, err
	}
	loaded := time.Since(start)
	opts.FromEpoch = 0 // the tail bound is the image's watermark, not the caller's
	if info != nil {
		report.CheckpointPath = info.Path
		report.CheckpointSeq = info.Seq
		report.Watermark = info.Watermark
		report.CheckpointRows = info.Rows
	}

	streams, closeAll, err := fs.BootStreams()
	if err != nil {
		return nil, err
	}
	report.Streams = len(streams)
	rep, seed, err := db.recoverLogs(info, streams, opts)
	if cerr := closeAll(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		var ce *CorruptionError
		if !opts.Salvage && errors.As(err, &ce) {
			err = fmt.Errorf("%w (boot with RecoverOptions.Salvage — thedb-server -wal.salvage — to restore the committed prefix of a crashed log)", err)
		}
		return nil, err
	}
	report.GroupsApplied = rep.AppliedGroups
	report.GroupsSkipped = rep.SkippedGroups
	report.GroupsDropped = rep.DroppedGroups
	report.TornTails = rep.TornGroups
	report.CommandsReplayed = len(rep.Commands)
	report.DurableEpoch = rep.DurableEpoch
	for i := range rep.Damage {
		report.Damage = append(report.Damage, rep.Damage[i].Error())
	}

	if seed > 0 {
		report.SeededEpoch = seed + 1
	}
	// The adopted generations' groups all sit at or below seed: a
	// watermark of seed or higher proves them redundant.
	fs.SetRecoveredMax(seed)

	wall := time.Since(start)
	report.WallMS = float64(wall.Microseconds()) / 1000
	report.LoadImageMS = float64(loaded.Microseconds()) / 1000
	report.ReplayTailMS = float64((wall - loaded).Microseconds()) / 1000
	db.ckstats.SetRestart(wall.Nanoseconds(), int64(rep.AppliedGroups), int64(rep.SkippedGroups))
	return report, nil
}
