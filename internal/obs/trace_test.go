package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thedb/internal/metrics"
)

// TestTracerTailRetention pins the tail-sampling policy: boring fast
// commits are counted but dropped; aborted, dedup-hit, healed, and
// slow traces are retained. The outcomes keep their numbers, which
// /debug/trace serves: 2 is retired, and a dedup hit stays 3.
func TestTracerTailRetention(t *testing.T) {
	tr := NewTracer(8, 100*time.Microsecond)
	cases := []struct {
		name string
		tr   Trace
		keep bool
	}{
		{"fast commit", Trace{ID: 1, Outcome: TraceCommitted, TotalUS: 10}, false},
		{"slow commit", Trace{ID: 2, Outcome: TraceCommitted, TotalUS: 100}, true},
		{"aborted", Trace{ID: 3, Outcome: TraceAborted, TotalUS: 1}, true},
		{"dedup hit", Trace{ID: 4, Outcome: TraceDedupHit, TotalUS: 1}, true},
		{"healed commit", Trace{ID: 5, Outcome: TraceCommitted, TotalUS: 1, NPasses: 1}, true},
	}
	if TraceCommitted != 0 || TraceAborted != 1 || TraceDedupHit != 3 {
		t.Errorf("outcome numbers = %d/%d/%d, want 0/1/3", TraceCommitted, TraceAborted, TraceDedupHit)
	}
	for _, c := range cases {
		slot := tr.Keep(&c.tr)
		if kept := slot >= 0; kept != c.keep {
			t.Errorf("%s: kept=%v, want %v", c.name, kept, c.keep)
		}
	}
	total, kept := tr.Stats()
	if total != 5 || kept != 4 {
		t.Errorf("stats = (%d, %d), want (5, 4)", total, kept)
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d traces, want 4", len(snap))
	}
	// Newest first.
	for i, want := range []uint64{5, 4, 3, 2} {
		if snap[i].ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d (newest first)", i, snap[i].ID, want)
		}
	}
}

// TestTracerWrapKeepsNewest: the ring holds the most recent retained
// traces once it wraps.
func TestTracerWrapKeepsNewest(t *testing.T) {
	tr := NewTracer(8, 0)
	for i := 1; i <= 20; i++ {
		tr.Keep(&Trace{ID: uint64(i), Outcome: TraceAborted})
	}
	snap := tr.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot has %d traces, want 8 (capacity)", len(snap))
	}
	for i, trc := range snap {
		if want := uint64(20 - i); trc.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, trc.ID, want)
		}
	}
}

// TestTracerAmendResp: the slot+ID pair amends the response-write
// duration after the fact; a stale amend (slot since overwritten) is a
// no-op.
func TestTracerAmendResp(t *testing.T) {
	tr := NewTracer(8, 0)
	slot := tr.Keep(&Trace{ID: 7, Outcome: TraceAborted})
	tr.AmendResp(slot, 7, 42)
	if snap := tr.Snapshot(); snap[0].RespUS != 42 {
		t.Errorf("resp_us = %d, want 42", snap[0].RespUS)
	}
	tr.AmendResp(slot, 999, 77) // wrong ID: must not clobber
	if snap := tr.Snapshot(); snap[0].RespUS != 42 {
		t.Errorf("stale amend clobbered resp_us: %d, want 42", snap[0].RespUS)
	}
	tr.AmendResp(-1, 7, 99) // dropped trace: no-op
}

// TestTracerLastSlow: the exemplar feed tracks the most recent slow
// trace only.
func TestTracerLastSlow(t *testing.T) {
	tr := NewTracer(8, 50*time.Microsecond)
	if _, _, ok := tr.LastSlow(); ok {
		t.Fatal("LastSlow ok before any slow trace")
	}
	tr.Keep(&Trace{ID: 1, Outcome: TraceAborted, TotalUS: 10}) // interesting, not slow
	if _, _, ok := tr.LastSlow(); ok {
		t.Fatal("an aborted-but-fast trace must not become the exemplar")
	}
	tr.Keep(&Trace{ID: 2, Outcome: TraceCommitted, TotalUS: 60})
	tr.Keep(&Trace{ID: 3, Outcome: TraceCommitted, TotalUS: 70})
	id, us, ok := tr.LastSlow()
	if !ok || id != 3 || us != 70 {
		t.Errorf("LastSlow = (%d, %d, %v), want (3, 70, true)", id, us, ok)
	}
}

// TestContentionSpaceSaving pins the sketch semantics: tracked keys
// count exactly while there is room; a new key when full evicts the
// minimum and inherits its count as the error bound; the snapshot is
// ranked by count and splits touch kinds.
func TestContentionSpaceSaving(t *testing.T) {
	c := NewContention(8) // minimum capacity
	for i := 0; i < 10; i++ {
		c.Touch(1, 100, TouchValidationFail)
	}
	for i := 0; i < 4; i++ {
		c.Touch(1, 100, TouchHealStart)
	}
	for k := uint64(0); k < 7; k++ {
		c.Touch(2, k, TouchValidationFail)
	}
	// Sketch is now full (8 keys). A fresh key evicts one of the
	// count-1 entries and adopts count 2 with error bound 1.
	c.Touch(3, 999, TouchValidationFail)

	snap := c.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot has %d entries, want 8", len(snap))
	}
	top := snap[0]
	if top.Table != 1 || top.Key != 100 || top.Count != 14 || top.Err != 0 {
		t.Errorf("top entry = %+v, want table 1 key 100 count 14 err 0", top)
	}
	if top.Fails != 10 || top.Heals != 4 {
		t.Errorf("top entry split = fails %d heals %d, want 10/4", top.Fails, top.Heals)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Count > snap[i-1].Count {
			t.Fatalf("snapshot not ranked: entry %d count %d > entry %d count %d",
				i, snap[i].Count, i-1, snap[i-1].Count)
		}
	}
	var adopted *ContEntry
	for i := range snap {
		if snap[i].Table == 3 && snap[i].Key == 999 {
			adopted = &snap[i]
		}
	}
	if adopted == nil {
		t.Fatal("fresh key not adopted after eviction")
	}
	if adopted.Count != 2 || adopted.Err != 1 {
		t.Errorf("adopted entry count/err = (%d, %d), want (2, 1): inherited minimum + 1",
			adopted.Count, adopted.Err)
	}
	if got := c.Total(); got != 22 {
		t.Errorf("total touches = %d, want 22", got)
	}
}

// TestPromExemplarFormat pins the OpenMetrics exemplar syntax on the
// latency histogram: exactly one bucket line carries the trailing
// `# {trace_id="<16 hex>"} <seconds>` annotation, and without an
// exemplar the exposition stays plain 0.0.4 text.
func TestPromExemplarFormat(t *testing.T) {
	w := &metrics.Worker{}
	for i := 0; i < 5; i++ {
		w.Committed.Add(1)
		w.ObserveLatency(time.Duration(1+i) * time.Microsecond)
	}
	a := metrics.Merge(time.Second, []*metrics.Worker{w})

	var plain strings.Builder
	WritePromWith(&plain, a, nil)
	if strings.Contains(plain.String(), "# {") {
		t.Fatal("plain exposition contains an exemplar annotation")
	}

	var sb strings.Builder
	WritePromWith(&sb, a, &Exemplar{TraceID: 0x2a, ValueUS: 1500})
	out := sb.String()
	const want = `# {trace_id="000000000000002a"} 0.0015`
	hits := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "# {") {
			continue
		}
		hits++
		if !strings.HasPrefix(line, "thedb_txn_latency_seconds_bucket{le=") {
			t.Errorf("exemplar attached to a non-bucket line: %q", line)
		}
		if !strings.HasSuffix(line, want) {
			t.Errorf("exemplar suffix = %q, want suffix %q", line, want)
		}
	}
	if hits != 1 {
		t.Errorf("%d bucket lines carry the exemplar, want exactly 1:\n%s", hits, out)
	}
}

// TestPlaneTraceEndpoints: /debug/trace and /debug/contention are 404
// until attached and serve decodable JSON afterwards, with table names
// resolved in the contention snapshot.
func TestPlaneTraceEndpoints(t *testing.T) {
	p := NewPlane()
	h := p.Handler()

	for _, path := range []string{"/debug/trace", "/debug/contention"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 404 {
			t.Errorf("%s before attach: status %d, want 404", path, rr.Code)
		}
	}

	tr := NewTracer(8, 250*time.Microsecond)
	tr.Keep(&Trace{ID: 0xbeef, Proc: "Pay", Outcome: TraceAborted, TotalUS: 9,
		NPasses: 1, Passes: [MaxHealPasses]HealPass{{StartUS: 3, EndUS: 5, Restored: 2}}})
	cont := NewContention(8)
	cont.Touch(4, 17, TouchValidationFail)
	p.SetTracer(tr, false)
	p.SetContention(cont)
	p.SetRecorder(NewRecorder(1, 64), func(id int) string {
		if id == 4 {
			return "ACCOUNT"
		}
		return ""
	})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/trace status %d", rr.Code)
	}
	var tresp struct {
		SlowThresholdUS int64   `json:"slow_threshold_us"`
		Total           uint64  `json:"total"`
		Kept            uint64  `json:"kept"`
		Traces          []Trace `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &tresp); err != nil {
		t.Fatalf("/debug/trace JSON: %v", err)
	}
	if tresp.SlowThresholdUS != 250 || tresp.Total != 1 || tresp.Kept != 1 {
		t.Errorf("trace header = %+v, want threshold 250 total 1 kept 1", tresp)
	}
	if len(tresp.Traces) != 1 || tresp.Traces[0].ID != 0xbeef ||
		tresp.Traces[0].Passes[0].Restored != 2 {
		t.Errorf("trace payload = %+v", tresp.Traces)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contention", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/contention status %d", rr.Code)
	}
	var cresp struct {
		K       int    `json:"k"`
		Total   uint64 `json:"total"`
		Entries []struct {
			ContEntry
			TableName string `json:"table_name"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &cresp); err != nil {
		t.Fatalf("/debug/contention JSON: %v", err)
	}
	if cresp.K != 8 || cresp.Total != 1 || len(cresp.Entries) != 1 {
		t.Fatalf("contention payload = %+v", cresp)
	}
	if e := cresp.Entries[0]; e.Key != 17 || e.TableName != "ACCOUNT" {
		t.Errorf("entry = %+v, want key 17 table ACCOUNT", e)
	}
}

// TestDumpMergeOrderStableSameEpoch pins the dump's merge order when
// two workers log on the same epoch tick: events sort by the
// recorder-global sequence word, which is a total order, so repeated
// dumps render the identical interleaving — no wall-clock ties, no
// worker-index bias.
func TestDumpMergeOrderStableSameEpoch(t *testing.T) {
	rec := NewRecorder(2, 64)
	// Interleave the two workers' events by hand; all share epoch 5 and
	// land within the same nanosecond-resolution clock tick on fast
	// machines (the adversarial case for a time-keyed merge).
	for i := uint64(0); i < 10; i++ {
		rec.RecordT(int(i%2), KCommit, 5, i, 0, 0xf00+i)
	}
	dump := func() string {
		var sb strings.Builder
		rec.DumpWith(&sb, nil)
		return sb.String()
	}
	first := dump()
	for i := 0; i < 5; i++ {
		if again := dump(); again != first {
			t.Fatalf("dump order unstable across reads:\n--- first\n%s--- again\n%s", first, again)
		}
	}
	// The record order (payload word A = 0..9) must be preserved even
	// though worker indices alternate 0,1,0,1,...
	evs := rec.Events()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.A != uint64(i) {
			t.Errorf("event %d has payload %d, want %d (global seq order)", i, ev.A, i)
		}
		if ev.Epoch != 5 || ev.Trace != 0xf00+uint64(i) {
			t.Errorf("event %d epoch/trace = (%d, %#x)", i, ev.Epoch, ev.Trace)
		}
	}
	// And the rendered lines follow the same order.
	var lastIdx = -1
	for i := uint64(0); i < 10; i++ {
		idx := strings.Index(first, "trace=0000000000000f0"+string(rune('0'+i)))
		if i >= 10 {
			break
		}
		if idx < 0 || idx < lastIdx {
			t.Fatalf("dump line for event %d out of order (idx %d, prev %d):\n%s", i, idx, lastIdx, first)
		}
		lastIdx = idx
	}
}
