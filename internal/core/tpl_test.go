package core

import (
	"runtime"
	"testing"

	"thedb/internal/oracle"
	"thedb/internal/proc"
	"thedb/internal/storage"
)

// TestTPLFootprintCarriesLockedStamp: a lock-at-access read reports to
// the oracle the stamp of the image it read under its lock, not one it
// saw before waiting for that lock. 2PL never validates, so nothing
// else would catch the difference. The attempt runs on the ladder's 2PL
// rung under an optimistic engine (meta-word locks) and arrives at a
// record the test holds locked, where it spins in tplLock; the test
// then commits a new stamp into the record and unlocks. One P makes the
// interleaving fixed: the spin yields to the test, which waits for the
// attempt's pin on the record before it re-stamps.
func TestTPLFootprintCarriesLockedStamp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	orc := oracle.NewRecorder(1)
	e := bankEngine(t, Options{Protocol: Healing, Workers: 1, Oracle: orc})
	w := e.Worker(0)
	spec := &proc.Spec{Name: "ReadAmy", Plan: func(b *proc.Builder, _ *proc.Env) {
		b.Op(proc.Op{Name: "read", Body: func(ctx proc.OpCtx) error {
			_, _, err := ctx.Read("BALANCE", amy, nil)
			return err
		}})
	}}
	pol := policyFor(&e.opts, TPL)
	if !pol.lockAtAccess || !pol.metaLocks {
		t.Fatalf("2PL rung under Healing: %+v, want meta-word lock-at-access", pol)
	}

	tab, _ := e.Catalog().Table("BALANCE")
	rec, _ := tab.Peek(amy)
	if !rec.TryLock() {
		t.Fatal("BALANCE[amy] unexpectedly locked")
	}
	pins := rec.Refs()
	done := make(chan error, 1)
	go func() {
		env := spec.Bind(nil)
		txn := newTxn(w, spec.Instantiate(env), env, &pol)
		err := txn.readPhase()
		if err == nil {
			err = txn.validateAndCommit()
		}
		if err != nil {
			txn.finish(false)
		}
		done <- err
	}()
	for rec.Refs() == pins { // the attempt has joined the record: it is in tplLock
		runtime.Gosched()
	}
	stamp := storage.MakeTS(7, 1)
	rec.SetTimestamp(stamp)
	rec.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("2PL attempt: %v", err)
	}

	commits := orc.Commits()
	if len(commits) != 1 || len(commits[0].Reads) != 1 {
		t.Fatalf("footprints %+v, want one commit with one read", commits)
	}
	if got := commits[0].Reads[0].Version; got != stamp {
		t.Fatalf("footprint read version %#x, want the stamp under the lock %#x", got, stamp)
	}
}
