package main

import "thedb/internal/metrics"

// metricDef names one metric and its unit. The two lists below are the
// catalogue BENCHMARK.json repeats (TestBenchmarkJSON holds them
// together); README.md says what each is for.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the database would see. Every
// one is defined, and non-zero, on every workload; they are measured
// with tracing off.
var endToEndDefs = []metricDef{
	{"txn_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p95_us", "us"},
	{"setup_s", "s"},
	{"setup_heap_mb", "MiB"},
}

// perLayerDefs are the single-layer metrics of a traced run. A metric
// whose layer a workload does not use reads 0 there. The first three
// are end-to-end by nature but exist on one workload only (or are 0
// when all is well), which the end-to-end list cannot hold; so is
// tail.lat_p99_us, whose run-to-run spread is too wide for a bound.
var perLayerDefs = []metricDef{
	{"scan_p50_us", "us"},
	{"restart_ms", "ms"},
	{"fail_frac", "ratio"},

	{"wire.codec_ns_per_call", "ns"},
	{"wire.bytes_per_call", "B"},
	{"wire.allocs_per_call", "count"},

	{"server.null_pipe_ns_per_call", "ns"},
	{"server.null_rtt_us", "us"},
	{"server.shed_per_call", "ratio"},
	{"server.dedup_hits", "count"},
	{"server.bytes_in_per_call", "B"},
	{"server.bytes_out_per_call", "B"},

	{"net.serving_share", "ratio"},
	{"net.unexplained_frac", "ratio"},

	{"core.null_run_ns", "ns"},
	{"core.run_ns", "ns"},
	{"core.exec_frac", "ratio"},
	{"core.validate_frac", "ratio"},
	{"core.heal_frac", "ratio"},
	{"core.write_frac", "ratio"},
	{"core.abort_frac", "ratio"},
	{"core.heals_per_txn", "ratio"},
	{"core.healed_ops_per_heal", "ratio"},
	{"core.false_inval_per_txn", "ratio"},
	{"core.restarts_per_txn", "ratio"},
	{"core.fallbacks_per_txn", "ratio"},
	{"core.useful_attempt_ratio", "ratio"},
	{"core.user_abort_frac", "ratio"},

	{"proc.NewOrder_p50_us", "us"},
	{"proc.Payment_p50_us", "us"},
	{"proc.OrderStatus_p50_us", "us"},
	{"proc.Delivery_p50_us", "us"},
	{"proc.StockLevel_p50_us", "us"},
	{"proc.Read_p50_us", "us"},
	{"proc.Update_p50_us", "us"},
	{"proc.SnapScan_p50_us", "us"},

	{"storage.peek_ns", "ns"},
	{"storage.rows_live", "count"},

	{"wal.bytes_per_txn", "B"},
	{"wal.frames_per_txn", "ratio"},
	{"wal.write_calls_per_txn", "ratio"},
	{"wal.write_busy_frac", "ratio"},
	{"wal.syncs_per_s", "1/s"},
	{"wal.sync_ms_p50", "ms"},
	{"wal.sync_ms_max", "ms"},
	{"wal.sync_busy_frac", "ratio"},
	{"wal.durable_lag_epochs_p50", "count"},
	{"wal.sync_failures", "count"},

	{"checkpoint.runs", "count"},
	{"checkpoint.duration_ms_p50", "ms"},
	{"checkpoint.rows_per_s", "1/s"},
	{"checkpoint.bytes_per_row", "B"},
	{"checkpoint.gens_truncated", "count"},
	{"checkpoint.fg_dip_frac", "ratio"},

	{"restart.open_ms", "ms"},
	{"restart.load_image_ms", "ms"},
	{"restart.replay_tail_ms", "ms"},
	{"restart.groups_applied", "count"},

	{"mvcc.versions_installed_per_update", "ratio"},
	{"mvcc.versions_reclaimed_frac", "ratio"},
	{"mvcc.tracked_chains_p50", "count"},
	{"mvcc.snapshot_epoch_lag_max", "count"},
	{"mvcc.scan_rows_per_s", "1/s"},

	{"obs.trace_overhead_frac", "ratio"},
	{"bench.harness_share", "ratio"},
	{"bench.lat_samples", "count"},
	{"gen.ns_per_req", "ns"},
	{"go.alloc_b_per_txn", "B"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cycles_per_s", "1/s"},
	{"go.live_heap_mb_end", "MiB"},
	{"tail.lat_p99_us", "us"},
	{"tail.lat_pmax_us", "us"},
	{"tail.lat_pmax_pct", "%"},
}

// sliceRates folds the pass's commit bins into whole slices and
// returns each slice's commit rate per second.
func (ps *pass) sliceRates() []float64 {
	out := make([]float64, int(ps.window/ps.e.p.slice))
	for i := range out {
		for _, c := range ps.win.bins[i*binsPerSlice : (i+1)*binsPerSlice] {
			out[i] += float64(c)
		}
		out[i] /= ps.e.p.slice.Seconds()
	}
	return out
}

// txnPerS is the commit rate over the window's whole slices — their
// mean, not their median. The commit rate swings with every
// garbage-collection cycle, about one a second on the TPC-C heaps, so a
// 1 s slice is either fast or slow and the median of twenty of them
// moves between runs (spread 4.1% on tpcc-hot) where the mean does not
// (2.7%). The slice series itself is kept in the result file.
func (ps *pass) txnPerS() float64 {
	return mean(ps.sliceRates())
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(ps *pass) map[string]float64 {
	return map[string]float64{
		"txn_per_s":     ps.txnPerS(),
		"lat_p50_us":    ps.win.lat.quantile(0.50) / 1e3,
		"lat_p95_us":    ps.win.lat.quantile(0.95) / 1e3,
		"setup_s":       median(ps.setupS),
		"setup_heap_mb": ps.setupHeap,
	}
}

// perLayer computes the per-layer metrics from an untraced reference
// pass (with its probes) and a traced pass of the same workload.
// Anything that must reconcile with an end-to-end number comes from
// ref; counters, phase times and spans come from tr.
func perLayer(ref, tr *pass, pr probes) map[string]float64 {
	wl := ref.e.wl
	m := map[string]float64{}
	ms := func(ns float64) float64 { return ns / 1e6 }
	us := func(ns float64) float64 { return ns / 1e3 }

	// Engine counter deltas over the traced window.
	a, b := tr.after, tr.before
	d := func(after, before int64) float64 { return float64(after - before) }
	commits := d(a.Committed, b.Committed)
	restarts := d(a.Restarts, b.Restarts)
	heals := d(a.Heals, b.Heals)
	exhausted := d(a.BudgetExhausted, b.BudgetExhausted)
	installed := d(a.VersionsInstalled, b.VersionsInstalled)
	winNS := float64(tr.window)

	m["scan_p50_us"] = us(ref.win.proc[clsSnapScan].quantile(0.5))
	m["fail_frac"] = ratio(float64(ref.win.failed+tr.win.failed), float64(ref.win.attempted+tr.win.attempted))

	if wl.net {
		m["wire.codec_ns_per_call"] = pr.codecNS
		m["wire.bytes_per_call"] = pr.wireBytes
		m["wire.allocs_per_call"] = pr.wireAllocs
		m["server.null_pipe_ns_per_call"] = pr.nullPipeNS
		m["server.null_rtt_us"] = us(pr.nullRTTNS)
		s0, s1 := tr.srvBefore, tr.srvAfter
		calls := float64(s1.Requests - s0.Requests)
		m["server.shed_per_call"] = ratio(float64(s1.Shed-s0.Shed), calls)
		m["server.dedup_hits"] = float64(s1.DedupHits - s0.DedupHits)
		m["server.bytes_in_per_call"] = ratio(float64(s1.BytesIn-s0.BytesIn), calls)
		m["server.bytes_out_per_call"] = ratio(float64(s1.BytesOut-s0.BytesOut), calls)

		// The reconciliation row: what a transaction costs a caller over
		// the wire, less the null layer's serving cost, less the engine's
		// own cost (whose dispatch the null layer already paid for).
		netNS := ratio(callers*float64(ref.window), float64(ref.win.committed))
		null := pr.nullRTTNS
		if wl.batch > 0 {
			null = pr.nullPipeNS
		}
		m["net.serving_share"] = 1 - ratio(pr.coreRunNS, netNS)
		m["net.unexplained_frac"] = ratio(netNS-null-pr.coreRunNS+pr.coreNullRunNS, netNS)
	}

	m["core.null_run_ns"] = pr.coreNullRunNS
	m["core.run_ns"] = pr.coreRunNS
	var phaseNS float64
	phase := func(p metrics.Phase) float64 { return d(a.PhaseNS[p], b.PhaseNS[p]) }
	for p := metrics.Phase(0); int(p) < metrics.NumPhases; p++ {
		phaseNS += phase(p)
	}
	m["core.exec_frac"] = ratio(phase(metrics.PhaseRead), phaseNS)
	m["core.validate_frac"] = ratio(phase(metrics.PhaseValidate), phaseNS)
	m["core.heal_frac"] = ratio(phase(metrics.PhaseHeal), phaseNS)
	m["core.write_frac"] = ratio(phase(metrics.PhaseWrite), phaseNS)
	m["core.abort_frac"] = ratio(phase(metrics.PhaseAbort), phaseNS)
	m["core.heals_per_txn"] = ratio(heals, commits)
	m["core.healed_ops_per_heal"] = ratio(d(a.HealedOps, b.HealedOps), heals)
	m["core.false_inval_per_txn"] = ratio(d(a.FalseInval, b.FalseInval), commits)
	m["core.restarts_per_txn"] = ratio(restarts, commits)
	m["core.fallbacks_per_txn"] = ratio(d(a.HealingFallbacks, b.HealingFallbacks), commits)
	m["core.useful_attempt_ratio"] = ratio(commits, commits+restarts+exhausted)
	m["core.user_abort_frac"] = ratio(float64(tr.win.userAborts), float64(tr.win.attempted))

	for c := class(0); c < numClasses; c++ {
		m["proc."+classNames[c]+"_p50_us"] = us(ref.win.proc[c].quantile(0.5))
	}

	m["storage.peek_ns"] = pr.peekNS
	m["storage.rows_live"] = float64(ref.rowsLive)

	if wl.durable {
		m["wal.bytes_per_txn"] = ratio(d(a.WALBytes, b.WALBytes), commits)
		m["wal.frames_per_txn"] = ratio(d(a.WALFrames, b.WALFrames), commits)
		m["wal.write_calls_per_txn"] = ratio(float64(tr.wal1.writes-tr.wal0.writes), commits)
		m["wal.write_busy_frac"] = ratio(float64(tr.wal1.writeNS-tr.wal0.writeNS), callers*winNS)
		syncs := make([]float64, len(tr.syncNS))
		var syncTotal float64
		for i, ns := range tr.syncNS {
			syncs[i] = float64(ns)
			syncTotal += float64(ns)
		}
		m["wal.syncs_per_s"] = float64(len(syncs)) / tr.window.Seconds()
		m["wal.sync_ms_p50"] = ms(median(syncs))
		m["wal.sync_ms_max"] = ms(maxOf(syncs))
		m["wal.sync_busy_frac"] = ratio(syncTotal, winNS)
		lags := make([]float64, len(tr.samples))
		for i, s := range tr.samples {
			lags[i] = float64(s.durableLag)
		}
		m["wal.durable_lag_epochs_p50"] = median(lags)
		m["wal.sync_failures"] = d(a.LogSyncFailures, b.LogSyncFailures)

		var durs, rows, bytes, busy float64
		var each []float64
		for _, c := range tr.ckpts {
			each = append(each, float64(c.end-c.start))
			durs += float64(c.end - c.start)
			rows += float64(c.rows)
			bytes += float64(c.bytes)
		}
		busy = durs / 1e9
		m["checkpoint.runs"] = float64(len(tr.ckpts))
		m["checkpoint.duration_ms_p50"] = ms(median(each))
		m["checkpoint.rows_per_s"] = ratio(rows, busy)
		m["checkpoint.bytes_per_row"] = ratio(bytes, rows)
		m["checkpoint.gens_truncated"] = float64(tr.gensTruncated)
		m["checkpoint.fg_dip_frac"] = tr.foregroundDip()

		m["restart_ms"] = ms(float64(ref.restart.openNS + ref.restart.loadNS + ref.restart.replayNS))
		m["restart.open_ms"] = ms(float64(tr.restart.openNS))
		m["restart.load_image_ms"] = ms(float64(tr.restart.loadNS))
		m["restart.replay_tail_ms"] = ms(float64(tr.restart.replayNS))
		m["restart.groups_applied"] = float64(tr.restart.groupsApplied)
	}

	m["mvcc.versions_installed_per_update"] = ratio(installed, float64(tr.win.wrote))
	m["mvcc.versions_reclaimed_frac"] = ratio(d(a.MVCCVersionsReclaimed, b.MVCCVersionsReclaimed), installed)
	chains := make([]float64, len(tr.samples))
	lag := make([]float64, len(tr.samples))
	for i, s := range tr.samples {
		chains[i] = float64(s.trackedChains)
		lag[i] = float64(s.snapshotLag)
	}
	m["mvcc.tracked_chains_p50"] = median(chains)
	m["mvcc.snapshot_epoch_lag_max"] = maxOf(lag)
	m["mvcc.scan_rows_per_s"] = ratio(float64(tr.win.scanRows), float64(tr.win.scanNS)/1e9)

	m["obs.trace_overhead_frac"] = 1 - ratio(tr.txnPerS(), ref.txnPerS())
	m["bench.harness_share"] = 1 - ratio(float64(ref.win.callNS), callers*float64(ref.window))
	m["bench.lat_samples"] = float64(ref.win.lat.n)
	m["gen.ns_per_req"] = ratio(float64(tr.win.genNS), float64(tr.win.attempted))
	m["go.alloc_b_per_txn"] = ratio(float64(ref.mem1.TotalAlloc-ref.mem0.TotalAlloc), float64(ref.win.committed))
	m["go.gc_pause_ms"] = ms(float64(ref.mem1.PauseTotalNs - ref.mem0.PauseTotalNs))
	m["go.gc_cycles_per_s"] = float64(ref.mem1.NumGC-ref.mem0.NumGC) / ref.window.Seconds()
	m["go.live_heap_mb_end"] = ref.heapEnd
	m["tail.lat_p99_us"] = us(ref.win.lat.quantile(0.99))
	top := topPercentile(ref.win.lat.n)
	m["tail.lat_pmax_us"] = us(ref.win.lat.quantile(top / 100))
	m["tail.lat_pmax_pct"] = top

	for _, def := range perLayerDefs {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0 // the workload does not use this layer
		}
	}
	return m
}

// foregroundDip is 1 − (mean commit rate of the bins a checkpoint pass
// overlaps ÷ mean rate of the other bins): how much the foreground
// slows while the background pass runs. Means, not medians: the commit
// rate already swings severalfold with each garbage-collection cycle
// (about one a second on the TPC-C heaps), so a bin is either fast or
// slow and a median of bins flips between the two.
func (ps *pass) foregroundDip() float64 {
	binW := int64(ps.e.p.slice) / binsPerSlice
	var in, out []float64
	for i := 0; i < int(int64(ps.window)/binW); i++ {
		lo, hi := int64(i)*binW, int64(i+1)*binW
		during := false
		for _, c := range ps.ckpts {
			during = during || (c.start < hi && c.end > lo)
		}
		if during {
			in = append(in, float64(ps.win.bins[i]))
		} else {
			out = append(out, float64(ps.win.bins[i]))
		}
	}
	if len(in) == 0 || len(out) == 0 {
		return 0
	}
	return 1 - ratio(mean(in), mean(out))
}
