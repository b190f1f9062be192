package obs

import (
	"fmt"
	"io"
	"math"
	"time"

	"thedb/internal/metrics"
)

// WriteProm renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE comment pairs followed
// by one sample line per series. Counters carry the _total suffix;
// the latency histogram uses the engine's doubling buckets converted
// to seconds with cumulative le edges, _sum and _count.
//
// thedb_up is always rendered, even from a zero snapshot, so scrapers
// (and the CI smoke) have one guaranteed gauge to assert on.
func WriteProm(w io.Writer, a *metrics.Aggregate) {
	WritePromWith(w, a, nil)
}

// Exemplar is the latency-histogram exemplar payload: the most recent
// slow trace, attached to the bucket its latency falls in so a
// dashboard can jump from a latency spike straight to /debug/trace.
type Exemplar struct {
	// TraceID is the slow trace's ID (rendered as 16 hex digits, the
	// same form \trace and the recorder dump print).
	TraceID uint64
	// ValueUS is the trace's total latency in microseconds.
	ValueUS int64
}

// WritePromWith is WriteProm with an optional histogram exemplar
// (OpenMetrics exemplar syntax; nil renders plain 0.0.4 text). Gated
// behind a flag upstream because strict text-format parsers may
// reject the `# {...}` suffix.
func WritePromWith(w io.Writer, a *metrics.Aggregate, ex *Exemplar) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("thedb_up", "1 while the exposition plane is serving.", 1)
	if a == nil {
		return
	}

	counter("thedb_committed_total", "Committed transactions.", a.Committed)
	counter("thedb_aborted_total", "Permanently aborted transactions.", a.Aborted)
	counter("thedb_restarts_total", "Abort-and-restart events.", a.Restarts)
	counter("thedb_heals_total", "Healing-phase invocations.", a.Heals)
	counter("thedb_healed_ops_total", "Operations restored by healing.", a.HealedOps)
	counter("thedb_false_invalidations_total", "Validation failures dismissed as false invalidations.", a.FalseInval)
	counter("thedb_ladder_fallbacks_total", "THEDB-HYBRID transactions rerun under 2PL after their OCC attempt aborted.", a.HealingFallbacks)
	counter("thedb_watchdog_trips_total", "Stuck-epoch watchdog firings.", a.WatchdogTrips)
	counter("thedb_log_syncs_total", "Successful epoch log syncs.", a.LogSyncs)
	counter("thedb_log_sync_failures_total", "Failed epoch log sync attempts.", a.LogSyncFailures)
	counter("thedb_wal_frames_total", "WAL frames written across all streams.", a.WALFrames)
	counter("thedb_wal_bytes_total", "WAL bytes written across all streams.", a.WALBytes)
	counter("thedb_snapshot_reads_total", "Committed snapshot (read-only, zero-validation) transactions.", a.SnapshotReads)
	counter("thedb_plan_expansions_total", "Executions of a stored procedure's Plan; flat under load when every plan in use is static.", a.PlanExpansions)
	counter("thedb_mvcc_versions_installed_total", "Version-chain nodes pushed by the commit path on epoch-boundary crossings.", a.VersionsInstalled)
	counter("thedb_mvcc_versions_reclaimed_total", "Version-chain nodes reclaimed by the GC past the snapshot watermark.", a.MVCCVersionsReclaimed)

	gauge("thedb_workers", "Execution workers configured.", float64(a.Workers))
	gauge("thedb_epoch", "Global epoch at snapshot time.", float64(a.Epoch))
	gauge("thedb_durable_epoch", "Highest epoch on stable storage in every log stream.", float64(a.DurableEpoch))
	lost := 0.0
	if a.DurabilityLost {
		lost = 1
	}
	gauge("thedb_durability_lost", "1 after a log sync exhausted its retries.", lost)
	gauge("thedb_tps", "Committed transactions per second of wall time.", a.TPS())
	gauge("thedb_abort_rate", "Restarts per committed transaction.", a.AbortRate())
	gauge("thedb_mvcc_tracked_chains", "Records currently queued for version-chain pruning.", float64(a.MVCCTrackedChains))
	gauge("thedb_snapshots_pinned", "Workers currently holding a pinned snapshot.", float64(a.SnapshotsPinned))
	gauge("thedb_snapshot_epoch_lag", "Epochs the oldest pinned snapshot trails the current epoch.", float64(a.SnapshotEpochLag))

	name := "thedb_phase_seconds_total"
	fmt.Fprintf(w, "# HELP %s Cumulative transaction-processing time by phase (Fig. 19 breakdown).\n# TYPE %s counter\n", name, name)
	for p := 0; p < metrics.NumPhases; p++ {
		ph := metrics.Phase(p)
		fmt.Fprintf(w, "%s{phase=%q} %s\n", name, ph.String(), formatFloat(float64(a.PhaseNS[ph])/float64(time.Second)))
	}

	writeLatencyHistogram(w, a, ex)
}

// WritePromServer renders the network serving plane's counters in the
// Prometheus text format. s is a Snapshot (plain loads are safe).
// Emitted after the engine series when the Sources carry Server, so
// one scrape covers engine and serving plane together.
func WritePromServer(w io.Writer, s metrics.ServerCounters) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("thedb_server_connections", "Currently open client connections.", float64(s.ConnsOpened-s.ConnsClosed))
	counter("thedb_server_connections_total", "Client connections accepted since start.", s.ConnsOpened)
	gauge("thedb_server_in_flight", "Admitted requests not yet answered.", float64(s.InFlight))
	counter("thedb_server_requests_total", "Procedure invocations admitted.", s.Requests)
	counter("thedb_server_runs_total", "Hand-offs to a dispatcher: runs of one burst's admitted calls (requests / runs = mean run length).", s.Runs)
	counter("thedb_server_shed_total", "Requests shed by admission control (typed retryable errors, never silent drops).", s.Shed)
	counter("thedb_server_draining_rejects_total", "Requests refused with the draining error during shutdown.", s.DrainRejected)
	counter("thedb_server_bad_frames_total", "Protocol-violating frames answered with a bad-request error.", s.BadFrames)
	counter("thedb_server_bytes_in_total", "Raw bytes read from client connections.", s.BytesIn)
	counter("thedb_server_bytes_out_total", "Raw bytes written to client connections.", s.BytesOut)
	counter("thedb_server_dedup_hits_total", "Retried calls answered from a session dedup window without re-executing.", s.DedupHits)
	counter("thedb_server_dedup_coalesced_total", "Retried calls that joined an in-flight original instead of re-executing.", s.DedupCoalesced)
	counter("thedb_server_dedup_evicted_total", "Completed responses evicted from bounded dedup windows.", s.DedupEvicted)
	gauge("thedb_server_dedup_entries", "Completed responses currently cached across all session dedup windows.", float64(s.DedupEntries))
	gauge("thedb_server_sessions", "Live client sessions in the registry.", float64(s.Sessions))
	counter("thedb_server_sessions_evicted_total", "Idle sessions discarded to stay under the registry cap.", s.SessionsEvicted)
	counter("thedb_server_deadline_rejects_total", "Calls refused because their deadline budget was exhausted before execution.", s.DeadlineRejected)
}

// WritePromCheckpoint renders the checkpoint subsystem's counters and
// the boot restart measurements. Emitted when the Sources carry
// Checkpoint.
func WritePromCheckpoint(w io.Writer, c *metrics.Checkpoint) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	counter("thedb_checkpoint_taken_total", "Checkpoints published.", c.Taken.Load())
	counter("thedb_checkpoint_failed_total", "Checkpoint rounds aborted before publishing.", c.Failed.Load())
	counter("thedb_checkpoint_wal_gens_removed_total", "WAL generation files deleted under the checkpoint watermark.", c.WALGensRemoved.Load())
	gauge("thedb_checkpoint_watermark_epoch", "Sealed-epoch watermark of the newest published checkpoint.", float64(c.LastWatermark.Load()))
	gauge("thedb_checkpoint_last_rows", "Rows in the newest published checkpoint image.", float64(c.LastRows.Load()))
	gauge("thedb_checkpoint_last_bytes", "Bytes of the newest published checkpoint image.", float64(c.LastBytes.Load()))
	gauge("thedb_checkpoint_last_duration_seconds", "Wall time of the newest successful checkpoint round.", float64(c.LastDurationNS.Load())/float64(time.Second))

	gauge("thedb_restart_seconds", "Wall time of boot recovery (checkpoint load plus WAL tail replay).", float64(c.RestartNS.Load())/float64(time.Second))
	gauge("thedb_restart_replayed_groups", "Commit groups replayed from the WAL tail at boot.", float64(c.RestartReplayed.Load()))
	gauge("thedb_restart_skipped_groups", "Commit groups below the checkpoint watermark, skipped at boot.", float64(c.RestartSkipped.Load()))
}

// WritePromContention renders the hot-key sketch as the
// thedb_contention_topk series: one sample per tracked key, labeled
// with table, key, feeding site split and the entry's overestimate
// bound, ranked by the rank label (1 = hottest).
func WritePromContention(w io.Writer, c *Contention) {
	name := "thedb_contention_topk"
	fmt.Fprintf(w, "# HELP %s Space-saving top-K contention counters: touches of a key at validation-failure and heal-start sites. The count overestimates the truth by at most err.\n# TYPE %s gauge\n", name, name)
	for i, e := range c.Snapshot() {
		fmt.Fprintf(w, "%s{rank=\"%d\",table=\"%d\",key=\"%d\",err=\"%d\",fails=\"%d\",heals=\"%d\"} %d\n",
			name, i+1, e.Table, e.Key, e.Err, e.Fails, e.Heals, e.Count)
	}
	fmt.Fprintf(w, "# HELP thedb_contention_touches_total Contention observations fed to the sketch.\n# TYPE thedb_contention_touches_total counter\nthedb_contention_touches_total %d\n", c.Total())
}

// writeLatencyHistogram emits the committed-latency doubling buckets
// as a Prometheus histogram in seconds. With a non-nil exemplar, the
// bucket the exemplar's latency falls in gets an OpenMetrics exemplar
// suffix: `# {trace_id="<16 hex>"} <latency seconds>`.
func writeLatencyHistogram(w io.Writer, a *metrics.Aggregate, ex *Exemplar) {
	name := "thedb_txn_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Committed-transaction latency (doubling buckets).\n# TYPE %s histogram\n", name, name)
	uppers, counts := a.LatencyBuckets()
	var cum int64
	exDone := false
	for i, upperUS := range uppers {
		cum += counts[i]
		le := "+Inf"
		if !math.IsInf(upperUS, 1) {
			le = formatFloat(upperUS / 1e6)
		}
		suffix := ""
		if ex != nil && !exDone && (math.IsInf(upperUS, 1) || float64(ex.ValueUS) <= upperUS) {
			suffix = fmt.Sprintf(" # {trace_id=\"%016x\"} %s", ex.TraceID, formatFloat(float64(ex.ValueUS)/1e6))
			exDone = true
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", name, le, cum, suffix)
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(a.LatencySumNS)/float64(time.Second)))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// formatFloat renders a float the way Prometheus expects: plain
// decimal or scientific, never fmt's default %v oddities for ±Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return fmt.Sprintf("%g", v)
	}
}
