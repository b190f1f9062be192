package thedb_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"thedb"
	"thedb/internal/obs"
)

// TestLiveMetricsWhileCommitting pins the acceptance contract for live
// snapshots: DB.LiveMetrics() and DB.Metrics(wall) are readable mid-run
// — under the race detector, while workers keep committing — and every
// snapshot is internally consistent: the committed counter never goes
// backwards and the epoch is populated once the advancer has run.
func TestLiveMetricsWhileCommitting(t *testing.T) {
	db := counterDB(t, thedb.Config{
		Protocol:      thedb.Healing,
		Workers:       2,
		EventBuffer:   256,
		EpochInterval: time.Millisecond,
	})
	db.Start()
	defer db.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			s := db.Session(wi)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Run("Incr", thedb.Int(int64((wi*4+i)%8))); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}

	var lastCommitted int64
	sawEpoch := false
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		a := db.LiveMetrics()
		if a == nil {
			t.Fatal("LiveMetrics returned nil on a core engine")
		}
		if a.Workers != 2 {
			t.Fatalf("live snapshot covers %d workers, want 2", a.Workers)
		}
		if a.Committed < lastCommitted {
			t.Fatalf("committed went backwards across snapshots: %d -> %d",
				lastCommitted, a.Committed)
		}
		lastCommitted = a.Committed
		if a.Epoch > 0 {
			sawEpoch = true
		}
		// Metrics takes the same scan with a caller's wall time; it
		// has no quiescence rule.
		m := db.Metrics(time.Second)
		if m.Wall != time.Second || m.Workers != 2 || m.Committed < lastCommitted {
			t.Fatalf("Metrics mid-run = wall %v, %d workers, %d committed; want 1s, 2, at least %d",
				m.Wall, m.Workers, m.Committed, lastCommitted)
		}
		lastCommitted = m.Committed
	}
	close(stop)
	wg.Wait()

	if lastCommitted == 0 {
		t.Fatal("no commits observed through live snapshots")
	}
	if !sawEpoch {
		t.Error("no live snapshot carried a nonzero epoch")
	}

	// The flight recorder ran alongside: both workers left commit
	// events, and the dump resolves the table name.
	perWorker := map[int]int{}
	for _, ev := range db.Events() {
		if ev.Kind == obs.KCommit {
			perWorker[ev.Worker]++
		}
	}
	for wi := 0; wi < 2; wi++ {
		if perWorker[wi] == 0 {
			t.Errorf("worker %d recorded no commit events", wi)
		}
	}
	var sb strings.Builder
	db.DumpEvents(&sb)
	if !strings.Contains(sb.String(), "commit ts=") {
		t.Errorf("event dump missing commit lines:\n%s", sb.String())
	}
}
