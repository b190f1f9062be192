package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"thedb"
	"thedb/internal/checkpoint"
	"thedb/internal/storage"
	"thedb/internal/workload/tpcc"
)

// walProbe measures the log device from outside: every WAL file the
// FileSet creates is wrapped in a timedSink, so write and fsync calls
// are counted and timed where they leave the process.
type walProbe struct {
	tr    *tracer
	epoch time.Time // span times are relative to this (the env's epoch)

	writes, writeBytes, writeNS atomic.Int64

	mu     sync.Mutex
	syncNS []int64 // one entry per fsync
	rings  map[int]*spanRing
}

func newWALProbe(tr *tracer, epoch time.Time) *walProbe {
	return &walProbe{tr: tr, epoch: epoch, rings: map[int]*spanRing{}}
}

// wrap is the FileSet's wrapSink hook; it is called again for every
// generation a rotation opens.
func (p *walProbe) wrap(worker int, f *os.File) io.Writer {
	p.mu.Lock()
	ring := p.rings[worker]
	if ring == nil {
		ring = p.tr.ring()
		p.rings[worker] = ring
	}
	p.mu.Unlock()
	return &timedSink{f: f, p: p, ring: ring}
}

// timedSink is an io.Writer and wal.Syncer over one WAL file.
type timedSink struct {
	f    *os.File
	p    *walProbe
	ring *spanRing
}

func (s *timedSink) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := s.f.Write(b)
	t1 := time.Now()
	s.p.writes.Add(1)
	s.p.writeBytes.Add(int64(n))
	s.p.writeNS.Add(int64(t1.Sub(t0)))
	s.ring.add(span{ID: s.p.tr.id(), Name: "wal.write",
		Start: int64(t0.Sub(s.p.epoch)), End: int64(t1.Sub(s.p.epoch))})
	return n, err
}

func (s *timedSink) Sync() error {
	t0 := time.Now()
	err := s.f.Sync()
	t1 := time.Now()
	s.p.mu.Lock()
	s.p.syncNS = append(s.p.syncNS, int64(t1.Sub(t0)))
	s.p.mu.Unlock()
	s.ring.add(span{ID: s.p.tr.id(), Name: "wal.sync",
		Start: int64(t0.Sub(s.p.epoch)), End: int64(t1.Sub(s.p.epoch))})
	return err
}

// walCounts is a point-in-time copy of a walProbe's counters.
type walCounts struct {
	writes, writeBytes, writeNS int64
	syncs                       int // len(syncNS) at the time
}

func (p *walProbe) counts() walCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return walCounts{p.writes.Load(), p.writeBytes.Load(), p.writeNS.Load(), len(p.syncNS)}
}

// syncsSince returns the fsync durations recorded after c was taken.
func (p *walProbe) syncsSince(c walCounts) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.syncNS[c.syncs:]...)
}

// ckptRun is one db.Checkpoint call made by the driver.
type ckptRun struct {
	start, end  int64 // ns since the measured window began
	rows, bytes int64
}

// checkpointLoop fires db.Checkpoint every period until stop closes,
// waiting out the round in flight. It returns the rounds it ran.
func (e *env) checkpointLoop(winStart time.Time, period time.Duration, stop <-chan struct{}) ([]ckptRun, error) {
	var runs []ckptRun
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return runs, nil
		case <-tick.C:
		}
		r, err := e.checkpointOnce(winStart)
		if err != nil {
			return runs, err
		}
		runs = append(runs, r)
	}
}

func (e *env) checkpointOnce(winStart time.Time) (ckptRun, error) {
	t0 := time.Now()
	info, err := e.db.Checkpoint(e.walDir)
	t1 := time.Now()
	if err != nil {
		return ckptRun{}, fmt.Errorf("checkpoint: %w", err)
	}
	r := ckptRun{start: int64(t0.Sub(winStart)), end: int64(t1.Sub(winStart)), rows: info.Rows, bytes: info.Bytes}
	if e.tr != nil {
		e.ckptRing().add(span{ID: e.tr.id(), Name: "checkpoint.run", Start: e.at(t0), End: e.at(t1)})
	}
	return r, nil
}

// ckptRing is the span ring of the driver's own background work:
// checkpoints and restarts.
func (e *env) ckptRing() *spanRing {
	if e.bgRing == nil {
		e.bgRing = e.tr.ring()
	}
	return e.bgRing
}

// digest summarises a TPC-C database for the before/after-restart
// comparison: visible rows per table, Σ W_YTD and Σ D_NEXT_O_ID.
type digest struct {
	rows     map[string]int64
	wYTD     int64
	dNextOID int64
}

func (d digest) equal(o digest) bool {
	if d.wYTD != o.wYTD || d.dNextOID != o.dNextOID || len(d.rows) != len(o.rows) {
		return false
	}
	for k, v := range d.rows {
		if o.rows[k] != v {
			return false
		}
	}
	return true
}

func (d digest) String() string {
	return fmt.Sprintf("rows=%v w_ytd=%d d_next_o_id=%d", d.rows, d.wYTD, d.dNextOID)
}

func tpccDigest(cat *storage.Catalog) digest {
	d := digest{rows: map[string]int64{}}
	for _, tab := range cat.Tables() {
		name := tab.Schema().Name
		tab.ForEach(func(_ storage.Key, r *storage.Record) bool {
			if !r.Visible() {
				return true
			}
			d.rows[name]++
			switch name {
			case tpcc.TabWarehouse:
				d.wYTD += r.Tuple()[tpcc.WYTDCents].Int()
			case tpcc.TabDistrict:
				d.dNextOID += r.Tuple()[tpcc.DNextOID].Int()
			}
			return true
		})
	}
	return d
}

// restartResult is one timed restart of the durable workload.
type restartResult struct {
	openNS, loadNS, replayNS int64
	groupsApplied            int
}

// restart boots a fresh database from the WAL directory the way
// thedb-server does — open the generation files, load the newest
// checkpoint image, replay the WAL tail above its watermark — and
// checks the result against want. The directory is left as found apart
// from the empty generation files OpenFileSet creates.
func (e *env) restart(want digest) (res restartResult, err error) {
	t0 := time.Now()
	fs, err := checkpoint.OpenFileSet(e.walDir, callers, nil)
	if err != nil {
		return res, fmt.Errorf("restart: open: %w", err)
	}
	defer func() {
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
	}()
	db, err := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: callers})
	if err != nil {
		return res, err
	}
	if err := e.loadSchema(db, false); err != nil {
		return res, err
	}
	t1 := time.Now()
	info, err := db.RestoreCheckpoint(e.walDir)
	if err != nil {
		return res, fmt.Errorf("restart: load image: %w", err)
	}
	if info == nil {
		return res, fmt.Errorf("restart: no checkpoint image in %s", e.walDir)
	}
	t2 := time.Now()
	streams, closeStreams, err := fs.BootStreams()
	if err != nil {
		return res, fmt.Errorf("restart: boot streams: %w", err)
	}
	rep, err := db.RecoverFromWith(nil, streams, thedb.RecoverOptions{FromEpoch: info.Watermark})
	if cerr := closeStreams(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, fmt.Errorf("restart: replay tail: %w", err)
	}
	t3 := time.Now()
	res = restartResult{
		openNS: int64(t1.Sub(t0)), loadNS: int64(t2.Sub(t1)), replayNS: int64(t3.Sub(t2)),
		groupsApplied: rep.AppliedGroups,
	}
	if tr := e.tr; tr != nil {
		ring, root := e.ckptRing(), tr.id()
		ring.add(span{ID: root, Name: "restart", Start: e.at(t0), End: e.at(t3)})
		ring.add(span{ID: tr.id(), Parent: root, Name: "restart.open", Start: e.at(t0), End: e.at(t1)})
		ring.add(span{ID: tr.id(), Parent: root, Name: "restart.load_image", Start: e.at(t1), End: e.at(t2)})
		ring.add(span{ID: tr.id(), Parent: root, Name: "restart.replay_tail", Start: e.at(t2), End: e.at(t3)})
	}
	if got := tpccDigest(db.Catalog()); !got.equal(want) {
		return res, fmt.Errorf("restart: database differs from the one closed:\n  closed:    %v\n  restarted: %v", want, got)
	}
	if err := tpcc.CheckConsistency(db.Catalog(), e.tcfg); err != nil {
		return res, fmt.Errorf("restart: %w", err)
	}
	return res, nil
}
