package storage

import (
	"sync"
	"sync/atomic"
)

// GC reclaims records deleted by committed transactions. Following
// §4.7.1, a deleted record (visibility bit off) is unlinked from its
// table's indexes only once its reference counter drops to zero,
// i.e. no in-flight transaction still holds it in a read/write set —
// and, when a snapshot watermark is wired in, only once every snapshot
// that could still observe the record's pre-delete state has drained
// (the record's delete stamp is at or below the watermark), since
// snapshot readers reach version chains through the indexes without
// pinning (DESIGN.md §4.6).
//
// The collector additionally prunes version chains: records gain a
// chain node when a commit crosses an epoch boundary (TrackVersions
// registers them, deduplicated by a per-record flag) and
// CollectVersions cuts every chain suffix below the snapshot
// low-watermark.
//
// Retire is called by the commit path; Collect runs either from a
// background goroutine (Start/Stop) or synchronously from tests.
type GC struct {
	catalog *Catalog

	mu      sync.Mutex
	retired []*Record

	// Version-chain state: chained queues records with non-empty
	// chains; watermark (when non-nil) supplies the snapshot
	// low-watermark — the highest timestamp no live or future snapshot
	// can be at or below.
	vmu       sync.Mutex
	chained   []*Record
	watermark func() uint64

	versionsReclaimed atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// NewGC returns a collector over the catalog's tables.
func NewGC(catalog *Catalog) *GC {
	return &GC{catalog: catalog}
}

// Retire queues a deleted record for reclamation.
func (g *GC) Retire(rec *Record) {
	g.mu.Lock()
	g.retired = append(g.retired, rec)
	g.mu.Unlock()
}

// Collect attempts to unlink every retired record, requeueing those
// still pinned or still visible to a live snapshot. It returns the
// number of records reclaimed.
func (g *GC) Collect() int {
	g.mu.Lock()
	batch := g.retired
	g.retired = nil
	g.mu.Unlock()

	// Snapshot safety: a deleted record must stay reachable through the
	// indexes while any snapshot below its delete stamp could still
	// resolve its pre-delete version — snapshot readers do not pin.
	wm := MaxTimestamp
	if g.watermark != nil {
		wm = g.watermark()
	}

	reclaimed := 0
	var remaining []*Record
	for _, rec := range batch {
		if rec.Visible() {
			// Resurrected: a later transaction reused the slot as its
			// insert target and committed. Drop it from the queue.
			continue
		}
		if rec.Timestamp() > wm && rec.VersionLen() > 0 {
			// Still carries history a snapshot could resolve: the head
			// node's end stamp is the delete stamp, so the chain empties
			// (CollectVersions) exactly when the watermark passes it.
			// With an empty chain every snapshot resolves the record to
			// absent — the current image is invisible and there is no
			// older image to fall back to — so unlinking loses nothing.
			remaining = append(remaining, rec)
			continue
		}
		if g.catalog.TableByID(rec.Table()).unlink(rec) {
			reclaimed++
		} else {
			remaining = append(remaining, rec)
		}
	}
	if len(remaining) > 0 {
		g.mu.Lock()
		g.retired = append(g.retired, remaining...)
		g.mu.Unlock()
	}
	return reclaimed
}

// SetWatermark wires in the snapshot low-watermark supplier. Must be
// set before the collector starts; nil (the default) disables both
// version pruning and the snapshot gate on record unlinking.
func (g *GC) SetWatermark(f func() uint64) { g.watermark = f }

// TrackVersions registers a record whose version chain became
// non-empty. Deduplicated through the record's chain flag, so the
// commit path can call it after every push without growing the queue
// beyond the set of chained records.
func (g *GC) TrackVersions(rec *Record) {
	if !rec.markChained() {
		return
	}
	g.vmu.Lock()
	g.chained = append(g.chained, rec)
	g.vmu.Unlock()
}

// CollectVersions prunes every tracked record's chain below the
// snapshot low-watermark, dropping fully-pruned records from the
// queue. Returns the number of version nodes reclaimed.
func (g *GC) CollectVersions() int {
	if g.watermark == nil {
		return 0
	}
	wm := g.watermark()

	g.vmu.Lock()
	batch := g.chained
	g.chained = nil
	g.vmu.Unlock()

	reclaimed := 0
	var remaining []*Record
	for _, rec := range batch {
		n, empty := rec.PruneVersions(wm)
		reclaimed += n
		if !empty {
			remaining = append(remaining, rec)
			continue
		}
		rec.clearChained()
		// Re-check after re-arming the flag: a push that raced between
		// the prune and the clear saw the flag still set and skipped
		// enqueueing; without this the record would leak its chain
		// until the next push.
		if rec.VersionLen() > 0 && rec.markChained() {
			remaining = append(remaining, rec)
		}
	}
	if len(remaining) > 0 {
		g.vmu.Lock()
		g.chained = append(g.chained, remaining...)
		g.vmu.Unlock()
	}
	g.versionsReclaimed.Add(int64(reclaimed))
	return reclaimed
}

// VersionsReclaimed returns the lifetime count of version nodes
// reclaimed by CollectVersions.
func (g *GC) VersionsReclaimed() int64 { return g.versionsReclaimed.Load() }

// TrackedChains returns the number of records currently queued for
// version pruning.
func (g *GC) TrackedChains() int {
	g.vmu.Lock()
	defer g.vmu.Unlock()
	return len(g.chained)
}

// Pending returns the number of retired-but-unreclaimed records.
func (g *GC) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.retired)
}

// Start launches a background goroutine that collects whenever poked
// via the returned kick function; Stop shuts it down. The engine
// kicks the collector once per epoch advance.
func (g *GC) Start() (kick func()) {
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	kickCh := make(chan struct{}, 1)
	go func() {
		defer close(g.done)
		for {
			select {
			case <-g.stop:
				g.Collect()
				g.CollectVersions()
				return
			case <-kickCh:
				g.Collect()
				g.CollectVersions()
			}
		}
	}()
	return func() {
		select {
		case kickCh <- struct{}{}:
		default:
		}
	}
}

// Stop terminates the background collector after a final pass.
func (g *GC) Stop() {
	if g.stop == nil {
		return
	}
	close(g.stop)
	<-g.done
	g.stop = nil
}
