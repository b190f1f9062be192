package thedb_test

// Network chaos torture: a fleet of clients drives a deterministic
// per-client workload through a fault-injecting proxy (internal/
// netfault) at a WAL-backed server, while the server is killed and
// restarted from its WAL mid-run. The proxy cuts connections before,
// during and after CALL frames, delays, blackholes and duplicates
// them — manufacturing exactly the ambiguous windows the (session,
// seq) exactly-once machinery exists for.
//
// Invariants checked per seed:
//
//  1. No lost acked commit: every call the client saw succeed is in
//     the final state (keys are disjoint per client, so each client's
//     sequential model is authoritative for its keys).
//  2. No double-apply: KVInc is a read-modify-write, so a replayed or
//     duplicated application is arithmetically visible forever.
//  3. Ambiguity is honest: ErrMaybeCommitted outcomes reconcile to
//     exactly "applied" or "not applied" via read-back — never to a
//     third state.
//  4. Serializability: every incarnation's commit history passes the
//     offline oracle (thedb.Config.Oracle).
//
// The "kill" is a drained shutdown (sealed WAL), not a torn one: this
// test owns network/protocol/dedup semantics across restart;
// ack-vs-durability under torn WAL tails is recovery_torture_test's
// domain.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/netfault"
	"thedb/internal/oracle"
	"thedb/internal/server"
	"thedb/internal/statecheck"
	"thedb/internal/workload/kv"
)

const (
	netChaosClients = 4
	netChaosOps     = 40 // per client
	netChaosKeys    = 16 // per client, remapped to disjoint ranges

	// netChaosSeedTimeout bounds one seed's fleet. A seed takes seconds;
	// the bound only has to sit below `go test`'s own ten minutes, so
	// that what a wedged seed prints is its number, not a goroutine dump.
	netChaosSeedTimeout = 4 * time.Minute
)

// chaosSchema registers internal/workload/kv's table and procedures,
// the three the fleet drives: blind put, read-modify-write increment
// (the double-apply detector) and get.
func chaosSchema(db *thedb.DB) {
	db.MustCreateTable(kv.Schema())
	for _, s := range kv.Specs() {
		db.MustRegister(s)
	}
}

// chaosIncarnation is one server life: a WAL-backed database
// recovered from dir, serving on a loopback listener.
type chaosIncarnation struct {
	srv  *server.Server
	addr string
	done chan error
}

// bootIncarnation boots a database from dir (DB.Boot, as
// cmd/thedb-server does; no checkpoint image is ever written here, so
// it replays the whole WAL) and starts a server on a fresh loopback
// port. All incarnations of one seed share rec: shutdowns are drained,
// so every recorded commit survives into the next life and later reads
// of recovered rows resolve against the earlier incarnations' writes.
func bootIncarnation(t *testing.T, dir string, workers int, rec *oracle.Recorder) *chaosIncarnation {
	t.Helper()
	fs, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		t.Fatalf("open wal set: %v", err)
	}
	db, err := thedb.Open(thedb.Config{
		Protocol:      thedb.Healing,
		Workers:       workers,
		WALSet:        fs,
		LogMode:       thedb.ValueLogging,
		EpochInterval: 2 * time.Millisecond,
		Oracle:        rec,
	})
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	chaosSchema(db)
	if _, err := db.Boot(thedb.RecoverOptions{Salvage: true}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	db.Start()

	srv := server.New(db, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	inc := &chaosIncarnation{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { inc.done <- srv.Serve(l) }()

	// Probe until the server answers a call: Serve is then provably
	// running, so a racing Shutdown cannot reach it first.
	probe, err := client.Dial(inc.addr, client.Options{})
	if err != nil {
		t.Fatalf("probe dial: %v", err)
	}
	if _, err := probe.Call(context.Background(), "KVGet", thedb.Int(0)); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if err := probe.Close(); err != nil {
		t.Errorf("probe close: %v", err)
	}
	return inc
}

// stop drains and shuts the incarnation down, sealing its WAL.
func (inc *chaosIncarnation) stop(t *testing.T, label string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := inc.srv.Shutdown(ctx); err != nil {
		t.Fatalf("%s: shutdown: %v", label, err)
	}
	if err := <-inc.done; err != nil {
		t.Fatalf("%s: serve: %v", label, err)
	}
}

// cell is one key's expected state in a client's sequential model.
type cell struct {
	present bool
	val     int64
}

// applyOp folds one model op into a cell.
func applyOp(c cell, op statecheck.Op) cell {
	switch op.Kind {
	case statecheck.OpPut:
		return cell{present: true, val: op.Val}
	case statecheck.OpInc:
		return cell{present: true, val: c.val + op.Val}
	}
	return c
}

// readBack resolves an ambiguous outcome by reading the key until the
// answer is definitive. Safe at this point: the ambiguous attempt is
// no longer pending anywhere — either its incarnation was drained
// before the client saw the ambiguity, or every retry was answered
// from the dedup window.
func readBack(ctx context.Context, cl *client.Client, key uint64) (cell, error) {
	var lastErr error
	for try := 0; try < 200; try++ {
		res, err := cl.Call(ctx, "KVGet", thedb.Int(int64(key)))
		if err == nil {
			if res.Val("found").Int() == 0 {
				return cell{}, nil
			}
			return cell{present: true, val: res.Val("val").Int()}, nil
		}
		lastErr = err
		if !errors.Is(err, client.ErrMaybeCommitted) {
			return cell{}, err
		}
		time.Sleep(2 * time.Millisecond) // reads are idempotent: just retry
	}
	return cell{}, fmt.Errorf("read-back never definitive: %w", lastErr)
}

// chaosClient runs one client's sequential workload through the
// proxy, maintaining its authoritative model over its disjoint key
// range and reconciling every ambiguous outcome.
func chaosClient(ctx context.Context, t *testing.T, proxyAddr string, cid int, ops []statecheck.Op, progress *atomic.Int64) (map[uint64]cell, int, error) {
	// A client scheduled late dials into a restart's CutAll: the first
	// dial is retried like every call after it, until the seed's time
	// runs out.
	var cl *client.Client
	for {
		var err error
		cl, err = client.Dial(proxyAddr, client.Options{
			Conns:         1,
			RetryAttempts: 300,
		})
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return nil, 0, fmt.Errorf("client %d: dial: %w", cid, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	defer func() {
		if cerr := cl.Close(); cerr != nil {
			t.Errorf("client %d: close: %v", cid, cerr)
		}
	}()
	model := make(map[uint64]cell)
	ambiguous := 0
	for i, op := range ops {
		key := uint64(cid)*1000 + op.Key
		var callErr error
		switch op.Kind {
		case statecheck.OpPut:
			_, callErr = cl.Call(ctx, "KVPut", thedb.Int(int64(key)), thedb.Int(op.Val))
		case statecheck.OpInc:
			_, callErr = cl.Call(ctx, "KVInc", thedb.Int(int64(key)), thedb.Int(op.Val))
		}
		progress.Add(1)
		if callErr == nil {
			model[key] = applyOp(model[key], op)
			continue
		}
		if !errors.Is(callErr, client.ErrMaybeCommitted) {
			return nil, 0, fmt.Errorf("client %d: op %d: unexpected definitive error: %w", cid, i, callErr)
		}
		ambiguous++
		ifApplied := applyOp(model[key], op)
		ifNot := model[key]
		if ifApplied == ifNot {
			// Both worlds agree on the state; the model is right either way.
			model[key] = ifApplied
			continue
		}
		got, err := readBack(ctx, cl, key)
		if err != nil {
			return nil, 0, fmt.Errorf("client %d: op %d: %w", cid, i, err)
		}
		switch got {
		case ifApplied:
			model[key] = ifApplied
		case ifNot:
			// Not applied; the model stands.
		default:
			return nil, 0, fmt.Errorf(
				"client %d: op %d (key %d): read-back %+v matches neither applied %+v nor not-applied %+v — partial or double apply",
				cid, i, key, got, ifApplied, ifNot)
		}
	}
	return model, ambiguous, nil
}

// netChaosSeed runs one seeded torture life: boot, fleet through the
// proxy, two mid-run kill+restarts, final model diff and oracle.
func netChaosSeed(t *testing.T, seed int64) {
	dir := t.TempDir()
	workers := 2
	rec := oracle.NewRecorder(workers)
	inc := bootIncarnation(t, dir, workers, rec)

	proxy, err := netfault.New(inc.addr, netfault.Config{
		Seed:       uint64(seed)*0x9E3779B97F4A7C15 + 1,
		PResetPre:  0.02,
		PResetMid:  0.02,
		PResetPost: 0.03,
		PDelay:     0.04,
		PBlackhole: 0.01,
		PDuplicate: 0.02,
		Delay:      time.Millisecond,
		Stall:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer func() {
		if cerr := proxy.Close(); cerr != nil {
			t.Logf("proxy close: %v", cerr)
		}
	}()

	// Everything the fleet does is bounded by the seed's timeout, so a
	// wedged seed fails with its number instead of hanging the job.
	ctx, cancel := context.WithTimeout(context.Background(), netChaosSeedTimeout)
	defer cancel()
	var progress atomic.Int64
	total := int64(netChaosClients * netChaosOps)

	type fleetResult struct {
		model     map[uint64]cell
		ambiguous int
		err       error
	}
	results := make([]fleetResult, netChaosClients)
	var wg sync.WaitGroup
	for cid := 0; cid < netChaosClients; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			ops := statecheck.GenOps(seed*131+int64(cid), netChaosOps, netChaosKeys)
			m, amb, err := chaosClient(ctx, t, proxy.Addr(), cid, ops, &progress)
			results[cid] = fleetResult{model: m, ambiguous: amb, err: err}
		}(cid)
	}
	fleetDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(fleetDone)
	}()

	// Kill + restart the server twice, at one-third and two-thirds of
	// fleet progress. The drained shutdown seals the WAL; the next
	// incarnation recovers from it and the proxy is retargeted, so
	// in-flight client retries land on a server with a different
	// incarnation and an empty dedup window — the ambiguity path.
	restarts := 0
restarting:
	for _, target := range []int64{total / 3, 2 * total / 3} {
		for progress.Load() < target {
			select {
			case <-fleetDone: // a client gave up early; its error is reported below
				break restarting
			case <-time.After(5 * time.Millisecond):
			}
		}
		inc.stop(t, fmt.Sprintf("seed %d incarnation %d", seed, restarts))
		inc = bootIncarnation(t, dir, workers, rec)
		proxy.Retarget(inc.addr)
		proxy.CutAll()
		restarts++
	}
	<-fleetDone
	if ctx.Err() != nil {
		t.Fatalf("seed %d: timed out after %v at %d of %d ops, %d restarts", seed, netChaosSeedTimeout, progress.Load(), total, restarts)
	}

	totalAmbiguous := 0
	for cid := range results {
		if results[cid].err != nil {
			t.Fatalf("seed %d: %v", seed, results[cid].err)
		}
		totalAmbiguous += results[cid].ambiguous
	}

	// Final verification bypasses the proxy: a clean client against
	// the last incarnation reads every key any client ever touched
	// and diffs against the per-client sequential models.
	direct, err := client.Dial(inc.addr, client.Options{})
	if err != nil {
		t.Fatalf("seed %d: direct dial: %v", seed, err)
	}
	mismatches := 0
	for cid := range results {
		ops := statecheck.GenOps(seed*131+int64(cid), netChaosOps, netChaosKeys)
		touched := make(map[uint64]bool)
		for _, op := range ops {
			touched[uint64(cid)*1000+op.Key] = true
		}
		for key := range touched {
			want := results[cid].model[key]
			res, err := direct.Call(ctx, "KVGet", thedb.Int(int64(key)))
			if err != nil {
				t.Fatalf("seed %d: final read key %d: %v", seed, key, err)
			}
			got := cell{present: res.Val("found").Int() == 1, val: res.Val("val").Int()}
			if !got.present {
				got.val = 0
			}
			if got != want {
				mismatches++
				t.Errorf("seed %d: client %d key %d: final state %+v, model %+v (lost ack or double apply)",
					seed, cid, key, got, want)
			}
		}
	}
	if err := direct.Close(); err != nil {
		t.Errorf("seed %d: direct close: %v", seed, err)
	}
	if mismatches != 0 {
		t.Fatalf("seed %d: %d key mismatches against the sequential models", seed, mismatches)
	}
	inc.stop(t, fmt.Sprintf("seed %d final incarnation", seed))

	// With every engine stopped, the whole multi-incarnation commit
	// history must be serializable.
	if viols := rec.Check(); len(viols) != 0 {
		for _, v := range viols {
			t.Errorf("seed %d: serializability violation: %+v", seed, v)
		}
		t.Fatalf("seed %d: %d serializability violations", seed, len(viols))
	}

	t.Logf("seed %d: %d ops, %d restarts, %d ambiguous outcomes reconciled, %d faults injected (pre=%d mid=%d post=%d delay=%d hole=%d dup=%d)",
		seed, total, restarts, totalAmbiguous, proxy.Injected(),
		proxy.Count(netfault.FaultResetPreWrite), proxy.Count(netfault.FaultResetMidWrite),
		proxy.Count(netfault.FaultResetPostWrite), proxy.Count(netfault.FaultDelay),
		proxy.Count(netfault.FaultBlackhole), proxy.Count(netfault.FaultDuplicate))
}

// TestNetChaosTorture drives the full matrix of seeds in parallel.
// Every seed replays deterministically on the fault side (the proxy's
// decision streams are seeded); scheduling noise only shifts which
// call meets which fault, never the invariants.
func TestNetChaosTorture(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			netChaosSeed(t, int64(seed))
		})
	}
}
