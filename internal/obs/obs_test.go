package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"thedb/internal/metrics"
)

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Record(0, KValidationFail, 3, 42, 7)
	r.Record(1, KCommit, 3, 99, 120)
	r.Record(EpochActor, KEpochAdvance, 4, 4, 0)

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	// Global sequence gives one total order across rings.
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if e := evs[0]; e.Worker != 0 || e.Kind != KValidationFail || e.Epoch != 3 || e.A != 42 || e.B != 7 {
		t.Fatalf("event 0 = %+v", e)
	}
	if e := evs[1]; e.Worker != 1 || e.Kind != KCommit {
		t.Fatalf("event 1 = %+v", e)
	}
	if e := evs[2]; e.Worker != EpochActor || e.Kind != KEpochAdvance || e.Epoch != 4 {
		t.Fatalf("event 2 = %+v", e)
	}
	if r.Recorded() != 3 || r.Dropped() != 0 {
		t.Fatalf("recorded=%d dropped=%d", r.Recorded(), r.Dropped())
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(1, 8)
	if r.RingSize() != 8 {
		t.Fatalf("ring size = %d, want 8", r.RingSize())
	}
	for i := 0; i < 20; i++ {
		r.Record(0, KCommit, 1, uint64(i), 0)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring size 8", len(evs))
	}
	// The survivors must be the newest 8 (A payloads 12..19).
	for i, ev := range evs {
		if want := uint64(12 + i); ev.A != want {
			t.Fatalf("survivor %d has payload %d, want %d", i, ev.A, want)
		}
	}
	if r.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", r.Dropped())
	}
}

func TestRecorderSizeRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 8}, {8, 8}, {9, 16}, {1000, 1024}} {
		if got := NewRecorder(1, c.in).RingSize(); got != c.want {
			t.Errorf("NewRecorder(1, %d).RingSize() = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRecorderConcurrentDump hammers the rings from one writer per
// worker while another goroutine repeatedly dumps: under -race this
// proves the seqlock publication protocol, and every event that is
// observed must be internally consistent (payload equals its ring's
// writer pattern).
func TestRecorderConcurrentDump(t *testing.T) {
	const workers = 4
	r := NewRecorder(workers, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Payload pattern: A = worker, B = iteration.
				r.Record(w, KCommit, uint32(i), uint64(w), uint64(i))
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, ev := range r.Events() {
			if ev.Worker < 0 || ev.Worker >= workers {
				t.Errorf("impossible worker %d", ev.Worker)
			}
			if ev.A != uint64(ev.Worker) {
				t.Errorf("torn event: worker %d ring holds payload A=%d", ev.Worker, ev.A)
			}
			if uint32(ev.B) != ev.Epoch {
				t.Errorf("torn event: B=%d but epoch=%d", ev.B, ev.Epoch)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestDumpNamesActorsEpochsAndCheckpoints(t *testing.T) {
	r := NewRecorder(2, 8)
	r.Record(0, KValidationFail, 5, 42, 1)
	r.Record(0, KHealStart, 5, 42, 1)
	r.Record(0, KHealEnd, 5, 3, 2)
	r.Record(1, KLadderEscalate, 6, 0, 1)
	r.Record(EpochActor, KEpochSeal, 6, 5, 0)
	r.Record(1, KAbort, 6, uint64(AbortUser), 12)

	var sb strings.Builder
	r.DumpWith(&sb, func(id int) string {
		if id == 1 {
			return "BALANCE"
		}
		return ""
	})
	out := sb.String()
	for _, want := range []string{
		"w0", "w1", "advancer", // actors
		"epoch=5", "epoch=6", // epochs
		"validation-fail BALANCE[42]",
		"heal-start BALANCE[42]",
		"heal-end ops-restored=3 frontier=2",
		"ladder-escalate proto 0 -> 1",
		"epoch-seal to=5",
		"abort reason=user attempts=12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// The interleaving must come out in global sequence order.
	if strings.Index(out, "validation-fail") > strings.Index(out, "abort reason") {
		t.Errorf("dump not in recording order:\n%s", out)
	}
}

func TestEventDetailPhantomAndWALSync(t *testing.T) {
	if d := (Event{Kind: KHealStart}).Detail(nil); !strings.Contains(d, "phantom-scan") {
		t.Errorf("phantom heal detail = %q", d)
	}
	if d := (Event{Kind: KWALSync, A: 0, B: 2}).Detail(nil); !strings.Contains(d, "FAILED") || !strings.Contains(d, "attempt=2") {
		t.Errorf("failed sync detail = %q", d)
	}
	if d := (Event{Kind: KWatchdogTrip, A: 3, B: 17}).Detail(nil); !strings.Contains(d, "stalled-worker=w3") {
		t.Errorf("watchdog detail = %q", d)
	}
}

// promLine matches one Prometheus text-format sample line:
// name{labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)

// checkPromText validates Prometheus text exposition format 0.0.4:
// every sample line parses, every series has a preceding TYPE, and
// histogram bucket counts are cumulative.
func checkPromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	typed := map[string]string{}
	values := map[string]float64{}
	var lastBucket float64
	var inHist string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			typed[f[2]] = f[3]
			if f[3] == "histogram" {
				inHist, lastBucket = f[2], 0
			}
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample %q", ln+1, line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[name] == "" && typed[base] == "" {
			t.Fatalf("line %d: series %q has no TYPE", ln+1, name)
		}
		v := 0.0
		switch m[3] {
		case "NaN":
		case "+Inf", "-Inf":
		default:
			var err error
			v, err = strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q", ln+1, m[3])
			}
		}
		if inHist != "" && name == inHist+"_bucket" {
			if v < lastBucket {
				t.Fatalf("line %d: histogram bucket not cumulative (%g < %g)", ln+1, v, lastBucket)
			}
			lastBucket = v
		}
		values[name+m[2]] = v
	}
	return values
}

func TestWritePromNilAggregate(t *testing.T) {
	var sb strings.Builder
	WriteProm(&sb, nil)
	vals := checkPromText(t, sb.String())
	if vals["thedb_up"] != 1 {
		t.Fatalf("thedb_up = %v, want 1 even with no aggregate", vals["thedb_up"])
	}
}

func TestWritePromFormat(t *testing.T) {
	w := &metrics.Worker{}
	for i := 0; i < 10; i++ {
		w.Committed.Add(1)
		w.ObserveLatency(time.Duration(1+i) * time.Microsecond)
	}
	w.Restarts.Add(1)
	w.AddPhase(metrics.PhaseHeal, 5*time.Millisecond)
	a := metrics.Merge(2*time.Second, []*metrics.Worker{w})
	a.Epoch = 9
	a.WALFrames = 4
	a.WALBytes = 512

	var sb strings.Builder
	WriteProm(&sb, a)
	vals := checkPromText(t, sb.String())
	checks := map[string]float64{
		"thedb_up":                        1,
		"thedb_committed_total":           10,
		"thedb_restarts_total":            1,
		"thedb_epoch":                     9,
		"thedb_wal_frames_total":          4,
		"thedb_wal_bytes_total":           512,
		"thedb_tps":                       5,
		"thedb_txn_latency_seconds_count": 10,
	}
	for name, want := range checks {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if _, ok := vals[`thedb_phase_seconds_total{phase="heal"}`]; !ok {
		t.Errorf("missing heal phase series in:\n%s", sb.String())
	}
}

func TestWritePromServerFormat(t *testing.T) {
	s := &metrics.Server{}
	s.ConnsOpened.Add(5)
	s.ConnsClosed.Add(2)
	s.Requests.Add(100)
	s.Runs.Add(13)
	s.InFlight.Add(7)
	s.Shed.Add(3)
	s.DrainRejected.Add(1)
	s.BytesIn.Add(4096)
	s.BytesOut.Add(8192)
	s.DedupHits.Add(11)
	s.DedupCoalesced.Add(4)
	s.DedupEvicted.Add(2)
	s.DedupEntries.Add(9)
	s.Sessions.Add(6)
	s.SessionsEvicted.Add(1)
	s.DeadlineRejected.Add(5)

	var sb strings.Builder
	WritePromServer(&sb, s.Snapshot())
	vals := checkPromText(t, sb.String())
	checks := map[string]float64{
		"thedb_server_connections":            3,
		"thedb_server_connections_total":      5,
		"thedb_server_in_flight":              7,
		"thedb_server_requests_total":         100,
		"thedb_server_runs_total":             13,
		"thedb_server_shed_total":             3,
		"thedb_server_draining_rejects_total": 1,
		"thedb_server_bytes_in_total":         4096,
		"thedb_server_bytes_out_total":        8192,
		"thedb_server_dedup_hits_total":       11,
		"thedb_server_dedup_coalesced_total":  4,
		"thedb_server_dedup_evicted_total":    2,
		"thedb_server_dedup_entries":          9,
		"thedb_server_sessions":               6,
		"thedb_server_sessions_evicted_total": 1,
		"thedb_server_deadline_rejects_total": 5,
	}
	for name, want := range checks {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
}

func TestPlaneServesServerStats(t *testing.T) {
	s := &metrics.Server{}
	s.ConnsOpened.Add(1)
	srv := httptest.NewServer(Handler(Sources{Server: s}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	vals := checkPromText(t, string(b))
	if vals["thedb_server_connections"] != 1 {
		t.Fatalf("thedb_server_connections = %v, want 1\n%s", vals["thedb_server_connections"], b)
	}
	if vals["thedb_up"] != 1 {
		t.Fatal("thedb_up missing from combined scrape")
	}
}

func TestPlaneHandler(t *testing.T) {
	get := func(h http.Handler, path string) (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code, rr.Body.String()
	}

	// No sources: /metrics still serves thedb_up, /debug/events 404s.
	empty := Handler(Sources{})
	code, body := get(empty, "/metrics")
	if code != 200 || !strings.Contains(body, "thedb_up 1") {
		t.Fatalf("/metrics without sources: code=%d body=%q", code, body)
	}
	checkPromText(t, body)
	if code, _ := get(empty, "/debug/events"); code != 404 {
		t.Fatalf("/debug/events without recorder: code=%d, want 404", code)
	}

	// A live source and a recorder: both endpoints serve them.
	w := &metrics.Worker{}
	w.Committed.Add(1)
	rec := NewRecorder(1, 8)
	rec.Record(0, KCommit, 2, 77, 5)
	h := Handler(Sources{
		Live:      func() *metrics.Aggregate { return metrics.Merge(time.Second, []*metrics.Worker{w}) },
		Recorder:  rec,
		TableName: func(int) string { return "T" },
	})
	code, body = get(h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics live: code=%d", code)
	}
	if vals := checkPromText(t, body); vals["thedb_committed_total"] != 1 {
		t.Fatalf("live committed = %v, want 1", vals["thedb_committed_total"])
	}
	code, body = get(h, "/debug/events")
	if code != 200 || !strings.Contains(body, "commit ts=77") {
		t.Fatalf("/debug/events live: code=%d body=%q", code, body)
	}
}

func TestDoWorkerRunsInline(t *testing.T) {
	ran := false
	DoWorker(3, func() { ran = true })
	if !ran {
		t.Fatal("DoWorker did not run fn")
	}
}

// BenchmarkRecord measures the per-event cost with the recorder
// enabled (the disabled path is one nil check in core's Worker.event,
// pinned allocation-free by its //thedb:noalloc annotation).
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(1, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(0, KCommit, 1, uint64(i), 0)
	}
}
