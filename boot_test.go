package thedb

// DB.Boot is the one boot sequence — image, tail, epoch seed, adopted-
// generation bound. These cases are the ones hand-written copies of
// that sequence got wrong or never exercised.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thedb/internal/statecheck"
	"thedb/internal/storage"
	"thedb/internal/wal"
	"thedb/internal/workload/kv"
)

// bootSchema declares internal/workload/kv's table and procedures;
// the tests commit only KVPut, an upsert, so a history is a plain
// sequence of single-row writes.
func bootSchema(db *DB) {
	db.MustCreateTable(kv.Schema())
	for _, s := range kv.Specs() {
		db.MustRegister(s)
	}
}

// bootLife opens dir as a one-worker WAL directory with the bootSchema
// tables; the set is the database's Config.WALSet. Epochs are advanced
// by the test, not a ticker.
func bootLife(t *testing.T, dir string) *DB {
	t.Helper()
	fs, err := OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	db, err := Open(Config{
		Protocol: Healing, Workers: 1,
		WALSet: fs, LogMode: ValueLogging, EpochInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	bootSchema(db)
	return db
}

// bootHistory commits txnsPerEpoch KVPut transactions in each of epochs
// epochs, then closes the database and its WAL files.
func bootHistory(t *testing.T, dir string, epochs, txnsPerEpoch int) *DB {
	t.Helper()
	db := bootLife(t, dir)
	db.Start()
	s := db.Session(0)
	for e := 0; e < epochs; e++ {
		if e > 0 {
			db.eng.Epoch().Advance()
		}
		for i := 0; i < txnsPerEpoch; i++ {
			if _, err := s.Run(kv.ProcPut, Int(int64(i)), Int(int64(e*100+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.cfg.WALSet.Close(); err != nil {
		t.Fatal(err)
	}
	return db
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(dir, "worker-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

// An image with no WAL behind it — what a checkpoint whose watermark
// covered every generation leaves — must still seed the epoch past the
// image's rows: nothing in the (absent) tail says how high they go.
func TestBootImageOnlySeedsPastImageRows(t *testing.T) {
	dir := t.TempDir()
	db := bootHistory(t, dir, 6, 4)
	info, err := db.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range walFiles(t, dir) {
		if err := os.Remove(g); err != nil {
			t.Fatal(err)
		}
	}
	if info.MaxRowEpoch < 6 {
		t.Fatalf("image max row epoch = %d, want at least 6", info.MaxRowEpoch)
	}

	db2 := bootLife(t, dir)
	report, err := db2.Boot(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointPath != info.Path || report.CheckpointRows != info.Rows {
		t.Fatalf("report names image %q (%d rows), want %q (%d rows)",
			report.CheckpointPath, report.CheckpointRows, info.Path, info.Rows)
	}
	if report.Streams != 0 || report.GroupsApplied != 0 {
		t.Fatalf("image-only boot replayed a tail: %+v", report)
	}
	if report.SeededEpoch <= info.MaxRowEpoch {
		t.Fatalf("seeded epoch %d does not exceed the image's max row epoch %d", report.SeededEpoch, info.MaxRowEpoch)
	}
	if got, want := statecheck.VisibleRows(db2.catalog), statecheck.VisibleRows(db.catalog); got != want {
		t.Fatalf("restored rows differ\n got: %s\nwant: %s", got, want)
	}

	var maxRestored uint64
	tab, _ := db2.Table("KV")
	tab.ForEach(func(_ Key, r *storage.Record) bool {
		maxRestored = max(maxRestored, r.Timestamp())
		return true
	})
	db2.Start()
	defer db2.Close()
	// A brand-new key: the commit inherits no timestamp from a restored
	// row, so only the seeded epoch can lift it above them.
	const fresh = 1 << 20
	if _, err := db2.Session(0).Run(kv.ProcPut, Int(fresh), Int(1)); err != nil {
		t.Fatal(err)
	}
	rec, ok := tab.Peek(fresh)
	if !ok {
		t.Fatal("first commit after boot left no row")
	}
	if rec.Timestamp() <= maxRestored {
		t.Fatalf("first commit after boot has timestamp %d, not above the restored rows' %d", rec.Timestamp(), maxRestored)
	}
	if e, _ := storage.SplitTS(rec.Timestamp()); e < report.SeededEpoch {
		t.Fatalf("first commit after boot is in epoch %d, below the seeded epoch %d", e, report.SeededEpoch)
	}
}

// The report splits the wall time into its two steps: restoring the
// image, then replaying the tail behind it.
func TestBootReportTimesImageAndTail(t *testing.T) {
	dir := t.TempDir()
	db := bootHistory(t, dir, 6, 4)
	if _, err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	report, err := bootLife(t, dir).Boot(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointPath == "" || report.Streams == 0 {
		t.Fatalf("boot read no image or no tail: %+v", report)
	}
	// The report carries whole microseconds as float milliseconds, and
	// 0.149 + 0.137 exceeds 0.286 in float64: compare microseconds.
	us := func(ms float64) int64 { return int64(math.Round(ms * 1000)) }
	if report.LoadImageMS <= 0 || report.ReplayTailMS <= 0 || us(report.LoadImageMS)+us(report.ReplayTailMS) > us(report.WallMS) {
		t.Fatalf("load_image_ms %v + replay_tail_ms %v, want both > 0 and within wall_ms %v",
			report.LoadImageMS, report.ReplayTailMS, report.WallMS)
	}
}

// A caller that restores the image itself and replays the tail
// through RecoverFromWith with the watermark as FromEpoch gets the
// epoch seeded past it too: Boot and RecoverFromWith share one replay,
// and an empty tail says nothing about how high the image's rows go.
func TestRecoverFromWithSeedsPastFromEpoch(t *testing.T) {
	dir := t.TempDir()
	db := bootHistory(t, dir, 6, 4)
	info, err := db.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range walFiles(t, dir) {
		if err := os.Remove(g); err != nil {
			t.Fatal(err)
		}
	}

	db2 := bootLife(t, dir)
	restored, err := db2.RestoreCheckpoint(dir)
	if err != nil || restored == nil || restored.Watermark != info.Watermark {
		t.Fatalf("RestoreCheckpoint = (%+v, %v), want the image of watermark %d", restored, err, info.Watermark)
	}
	if _, err := db2.RecoverFromWith(nil, nil, RecoverOptions{FromEpoch: restored.Watermark}); err != nil {
		t.Fatal(err)
	}
	if got := db2.engine().Epoch().Current(); got <= restored.Watermark {
		t.Fatalf("epoch after recovery = %d, not above the watermark %d", got, restored.Watermark)
	}
}

func TestBootEmptyDirIsAFreshStart(t *testing.T) {
	db := bootLife(t, t.TempDir())
	report, err := db.Boot(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointPath != "" || report.GroupsApplied != 0 || report.CommandsReplayed != 0 || report.SeededEpoch != 0 {
		t.Fatalf("empty directory booted as %+v, want a fresh start", report)
	}
	db.Start()
	defer db.Close()
	if _, err := db.Session(0).Run(kv.ProcPut, Int(1), Int(1)); err != nil {
		t.Fatalf("first transaction after a fresh boot: %v", err)
	}
}

// A crash-torn log: strict boot refuses, names the way out and leaves
// the catalog alone; salvage boot of the same directory reports exactly
// what the stream-level recovery of the same bytes reports.
func TestBootTornTailStrictAndSalvage(t *testing.T) {
	dir := t.TempDir()
	bootHistory(t, dir, 4, 5)
	gens := walFiles(t, dir)
	if len(gens) != 1 {
		t.Fatalf("generations = %v, want one", gens)
	}
	full, err := os.ReadFile(gens[0])
	if err != nil {
		t.Fatal(err)
	}
	frames, damage, err := wal.InspectStream(bytes.NewReader(full))
	if err != nil || damage != nil {
		t.Fatalf("inspect: err=%v damage=%v", err, damage)
	}
	// Tear the last commit frame's header: the stream now ends in a
	// damaged frame preceded by a record group with no commit entry.
	cut := int64(-1)
	for _, f := range frames {
		if f.Kind == wal.KindCommit {
			cut = f.Offset + 3
		}
	}
	if cut < 0 {
		t.Fatal("log holds no commit frame")
	}
	torn := full[:cut]
	if err := os.WriteFile(gens[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}

	strictDB := bootLife(t, dir)
	_, serr := strictDB.Boot(RecoverOptions{})
	var ce *CorruptionError
	if !errors.As(serr, &ce) {
		t.Fatalf("strict boot error = %v, want *CorruptionError", serr)
	}
	if msg := serr.Error(); !strings.Contains(msg, "Salvage") || !strings.Contains(msg, "-wal.salvage") {
		t.Fatalf("strict boot error does not name the salvage option: %v", serr)
	}
	if rows := statecheck.VisibleRows(strictDB.catalog); rows != "" {
		t.Fatalf("strict boot mutated the catalog before failing:\n%s", rows)
	}

	ref := bootLife(t, t.TempDir())
	rep, err := ref.RecoverFromWith(nil, []io.Reader{bytes.NewReader(torn)}, RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppliedGroups == 0 || rep.DroppedGroups == 0 || rep.TornGroups != 1 || len(rep.Damage) != 1 {
		t.Fatalf("reference salvage = %+v, want applied and dropped groups, one torn group, one damage entry", rep)
	}

	salvageDB := bootLife(t, dir)
	report, err := salvageDB.Boot(RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatalf("salvage boot: %v", err)
	}
	if !report.Salvaged || report.CheckpointPath != "" || report.Streams != 1 ||
		report.GroupsApplied != rep.AppliedGroups || report.GroupsSkipped != rep.SkippedGroups ||
		report.GroupsDropped != rep.DroppedGroups || report.TornTails != rep.TornGroups ||
		report.DurableEpoch != rep.DurableEpoch || report.SeededEpoch != rep.MaxEpoch+1 ||
		len(report.Damage) != len(rep.Damage) {
		t.Fatalf("boot report %+v does not match the recovery report %+v", report, rep)
	}
	if got, want := statecheck.VisibleRows(salvageDB.catalog), statecheck.VisibleRows(ref.catalog); got != want {
		t.Fatalf("salvage boot state differs from stream recovery\n got: %s\nwant: %s", got, want)
	}
}

// A checkpoint must land where Boot looks for it. A round published in
// another directory still rotated and truncated the WAL set, so the
// set lost generations that no image Boot would find covered: a strict
// Boot then restored a fraction of the acknowledged commits and
// reported nothing wrong. Checkpoint now refuses such a directory
// before touching anything; CheckpointEvery takes no directory.
func TestCheckpointOutsideWALDirRefused(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	fs, err := OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	db, err := Open(Config{
		Protocol: Healing, Workers: 1,
		WALSet: fs, LogMode: ValueLogging, EpochInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bootSchema(db)
	db.Start()
	const rows = 60
	for i := 0; i < rows; i++ {
		if _, err := db.Session(0).Run(kv.ProcPut, Int(int64(i)), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			time.Sleep(3 * time.Millisecond)
		}
	}
	gens := walFiles(t, dir)
	for round := 0; round < 2; round++ {
		if _, err := db.Checkpoint(other); !errors.Is(err, ErrCheckpointDir) {
			t.Fatalf("round %d: Checkpoint(%q) = %v, want ErrCheckpointDir", round, other, err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	if left, _ := filepath.Glob(filepath.Join(other, "*")); len(left) != 0 {
		t.Fatalf("refused checkpoint wrote %v", left)
	}
	if now := walFiles(t, dir); strings.Join(now, ",") != strings.Join(gens, ",") {
		t.Fatalf("refused checkpoint changed the WAL set: %v -> %v", gens, now)
	}
	// The same directory spelled differently is the WAL set's own.
	if _, err := db.Checkpoint(filepath.Join(dir, "sub", "..")); err != nil {
		t.Fatalf("Checkpoint of the WAL directory: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := bootLife(t, dir)
	report, err := db2.Boot(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointPath == "" {
		t.Fatalf("boot named no checkpoint: %+v", report)
	}
	if got, want := statecheck.VisibleRows(db2.catalog), statecheck.VisibleRows(db.catalog); got != want {
		t.Fatalf("restored rows differ\n got: %s\nwant: %s", got, want)
	}
	tab, _ := db2.Table("KV")
	n := 0
	tab.ForEach(func(Key, *storage.Record) bool { n++; return true })
	if n != rows {
		t.Fatalf("boot restored %d of %d rows", n, rows)
	}
}

// A WAL set holds one live stream per worker; a database with more
// workers than streams used to panic at its first Register.
func TestOpenRefusesWALSetWorkerMismatch(t *testing.T) {
	fs, err := OpenWALSet(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Workers() != 1 {
		t.Fatalf("FileSet.Workers() = %d, want 1", fs.Workers())
	}
	if _, err := Open(Config{Workers: 2, WALSet: fs}); err == nil {
		t.Fatal("Open with 2 workers over a 1-worker WAL set succeeded")
	}
	two, err := OpenWALSet(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if _, err := Open(Config{WALSet: two}); err == nil {
		t.Fatal("Open with the default 1 worker over a 2-worker WAL set succeeded")
	}
	db, err := Open(Config{WALSet: fs})
	if err != nil {
		t.Fatalf("Open with the default 1 worker over a 1-worker WAL set: %v", err)
	}
	bootSchema(db)
}

// A database is durable only through its WAL set: without one, Boot
// has no directory to restart from and CheckpointEvery none to publish
// into. Both refuse, and neither leaves anything behind.
func TestBootAndCheckpointEveryRefuseWithoutWALSet(t *testing.T) {
	db, err := Open(Config{Protocol: Healing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bootSchema(db)
	if _, err := db.Boot(RecoverOptions{}); err == nil {
		t.Fatal("Boot of a database without a WAL set succeeded")
	}
	if rows := statecheck.VisibleRows(db.catalog); rows != "" {
		t.Fatalf("refused Boot mutated the catalog:\n%s", rows)
	}
	db.Start()
	if err := db.CheckpointEvery(time.Millisecond); err == nil {
		t.Fatal("CheckpointEvery on a database without a WAL set succeeded")
	}
	if db.ck != nil {
		t.Fatal("refused CheckpointEvery left a checkpointer running")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after the refusals: %v", err)
	}
}

// A database that was never started has no writer for a round to wait
// on: Checkpoint publishes at the current epoch at once, although the
// durable frontier an online round gates on is still 0, and then drops
// the WAL generations that epoch covers.
func TestCheckpointBeforeStartPublishesAtCurrentEpoch(t *testing.T) {
	dir := t.TempDir()
	bootHistory(t, dir, 6, 4)
	gens := walFiles(t, dir)
	db := bootLife(t, dir)
	if _, err := db.Boot(RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	cur := db.eng.Epoch().Current()
	if durable := db.eng.DurableEpoch(); durable >= cur {
		t.Fatalf("durable epoch %d already at current %d: the gate would be open anyway", durable, cur)
	}
	start := time.Now()
	info, err := db.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Checkpoint before Start took %v: it waited on the publication gate", elapsed)
	}
	if info.Watermark != cur {
		t.Fatalf("watermark = %d, want the current epoch %d", info.Watermark, cur)
	}
	for _, g := range gens {
		if _, err := os.Stat(g); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("generation %s of the first life survived the round (stat: %v)", g, err)
		}
	}
	if err := db.cfg.WALSet.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := bootLife(t, dir)
	report, err := db2.Boot(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointPath != info.Path {
		t.Fatalf("boot used checkpoint %q, want %q", report.CheckpointPath, info.Path)
	}
	if got, want := statecheck.VisibleRows(db2.catalog), statecheck.VisibleRows(db.catalog); got != want {
		t.Fatalf("restored rows differ\n got: %s\nwant: %s", got, want)
	}
}
