package thedb

// Restart-time snapshot (ISSUE 6 acceptance): measure restart wall
// time after 10k / 100k / 1M committed transactions, with and without
// a fresh checkpoint, and write BENCH_restart.json. The claim on
// display: with a checkpoint, restart cost tracks the live working
// set (checkpoint rows + WAL tail), not total history; without one,
// it grows linearly with history.
//
// Run via `make bench-restart` (env-gated so the ordinary test suite
// stays fast).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const (
	benchRestartKeys = 1 << 16 // bounded live set; history >> live set at 1M
	benchRestartTail = 1_000   // txns committed after the last checkpoint
)

func benchRestartSpec() *Spec {
	return &Spec{
		Name:   "RPut",
		Params: []string{"key", "val"},
		Plan: func(b *Builder, _ *Env) {
			b.Op(Op{
				Name:     "put",
				KeyReads: []string{"key"},
				ValReads: []string{"val"},
				Body: func(ctx OpCtx) error {
					e := ctx.Env()
					k := Key(e.Int("key"))
					_, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					if ok {
						return ctx.Write("KV", k, []int{0}, []Value{Int(e.Int("val"))})
					}
					return ctx.Insert("KV", k, Tuple{Int(e.Int("val"))})
				},
			})
		},
	}
}

func benchRestartSchema(db *DB) {
	db.MustCreateTable(Schema{
		Name:    "KV",
		Columns: []ColumnDef{{Name: "v", Kind: KindInt}},
	})
	db.MustRegister(benchRestartSpec())
}

type restartCase struct {
	Txns          int     `json:"txns"`
	Checkpoint    bool    `json:"checkpoint"`
	RestartMS     float64 `json:"restart_ms"`
	CkptRows      int64   `json:"checkpoint_rows"`
	GroupsApplied int     `json:"groups_applied"`
	GroupsSkipped int     `json:"groups_skipped"`
	WALBytes      int64   `json:"wal_bytes"`
	CkptBytes     int64   `json:"checkpoint_bytes"`
}

func runRestartCase(t *testing.T, txns int, withCkpt bool) restartCase {
	dir := t.TempDir()
	fs, err := OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{
		Protocol:      Healing,
		Workers:       1,
		WALSet:        fs,
		LogMode:       ValueLogging,
		EpochInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	benchRestartSchema(db)
	db.Start()
	s := db.Session(0)
	for i := 0; i < txns; i++ {
		if _, err := s.Run("RPut", Int(int64(i%benchRestartKeys)), Int(int64(i))); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	var ckptRows int64
	if withCkpt {
		// Two rounds, as a periodic checkpointer would produce: the
		// first publishes an image and rotates onto a fresh
		// generation; the second's watermark has passed the rotated
		// generation's top epoch, so the whole history generation is
		// truncated. Then a fixed-size tail commits after the image.
		if _, err := db.Checkpoint(dir); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		time.Sleep(20 * time.Millisecond) // let the durable frontier pass the rotated generation
		info, err := db.Checkpoint(dir)
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		ckptRows = info.Rows
		for i := 0; i < benchRestartTail; i++ {
			if _, err := s.Run("RPut", Int(int64(i%benchRestartKeys)), Int(int64(txns+i))); err != nil {
				t.Fatalf("tail txn %d: %v", i, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	var walBytes, ckptBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if filepath.Ext(e.Name()) == ".ckpt" {
			ckptBytes += fi.Size()
		} else {
			walBytes += fi.Size()
		}
	}

	// ---- The measured region: what a server does at boot. ----
	start := time.Now()
	fs2, err := OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Protocol: Healing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	benchRestartSchema(db2)
	boot, err := db2.Boot(fs2, RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	elapsed := time.Since(start)

	// Sanity: every committed transaction must be visible after
	// restart — the newest value of the last-written key is txns-1.
	tab, _ := db2.Table("KV")
	lastKey := Key(int64((txns - 1) % benchRestartKeys))
	rec, ok := tab.Peek(lastKey)
	if !ok {
		t.Fatalf("key %d missing after restart", lastKey)
	}
	_, tup, visible := rec.StableSnapshot()
	if !visible || tup[0].Int() != int64(txns-1) {
		t.Fatalf("key %d = %v after restart, want %d", lastKey, tup, txns-1)
	}
	if withCkpt {
		// The tail committed after the image must be there too.
		rec, ok := tab.Peek(Key(benchRestartTail - 1))
		if !ok {
			t.Fatalf("tail key missing after restart")
		}
		if _, tup, visible := rec.StableSnapshot(); !visible || tup[0].Int() != int64(txns+benchRestartTail-1) {
			t.Fatalf("tail key = %v after restart, want %d", tup, txns+benchRestartTail-1)
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}

	return restartCase{
		Txns:          txns,
		Checkpoint:    withCkpt,
		RestartMS:     float64(elapsed.Microseconds()) / 1000,
		CkptRows:      ckptRows,
		GroupsApplied: boot.GroupsApplied,
		GroupsSkipped: boot.GroupsSkipped,
		WALBytes:      walBytes,
		CkptBytes:     ckptBytes,
	}
}

// TestBenchRestartSnapshot regenerates BENCH_restart.json. Gated on
// THEDB_BENCH_RESTART=1 (the 1M-txn cases take a couple of minutes).
func TestBenchRestartSnapshot(t *testing.T) {
	if os.Getenv("THEDB_BENCH_RESTART") == "" {
		t.Skip("set THEDB_BENCH_RESTART=1 (or run `make bench-restart`) to regenerate BENCH_restart.json")
	}
	sizes := []int{10_000, 100_000, 1_000_000}
	var cases []restartCase
	for _, n := range sizes {
		for _, ckpt := range []bool{false, true} {
			c := runRestartCase(t, n, ckpt)
			t.Logf("txns=%d checkpoint=%v restart=%.1fms rows=%d applied=%d skipped=%d wal=%dB ckpt=%dB",
				c.Txns, c.Checkpoint, c.RestartMS, c.CkptRows, c.GroupsApplied, c.GroupsSkipped, c.WALBytes, c.CkptBytes)
			cases = append(cases, c)
		}
	}
	out := struct {
		Date     string        `json:"date"`
		Bench    string        `json:"bench"`
		KeySpace int           `json:"key_space"`
		Note     string        `json:"note"`
		Cases    []restartCase `json:"cases"`
	}{
		Date:     time.Now().UTC().Format("2006-01-02"),
		Bench:    "restart wall time vs committed history (make bench-restart)",
		KeySpace: benchRestartKeys,
		Note:     "checkpoint=true restarts load the image + WAL tail only: wall time tracks the live set, not history; checkpoint=false replays every group",
		Cases:    cases,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_restart.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_restart.json (%d cases)", len(cases))
}
