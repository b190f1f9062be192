package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"runtime/pprof"
	"strconv"
	"time"

	"thedb/internal/metrics"
)

// Sources is what the exposition plane serves. Every field is
// optional: an endpoint whose source is nil answers 404, and /metrics
// omits the series of a nil source (with no Live it serves thedb_up
// alone).
type Sources struct {
	// Live snapshots the engine's counters for /metrics.
	Live func() *metrics.Aggregate
	// Recorder is the flight recorder served at /debug/events.
	Recorder *Recorder
	// TableName resolves table IDs in the event and contention dumps.
	TableName func(int) string
	// Server adds the network serving plane's thedb_server_* series.
	Server *metrics.Server
	// Checkpoint adds the thedb_checkpoint_* and thedb_restart_* series.
	Checkpoint *metrics.Checkpoint
	// Tracer is the transaction trace ring served at /debug/trace.
	Tracer *Tracer
	// Exemplars decorates the latency histogram buckets with the most
	// recent slow trace ID in OpenMetrics exemplar syntax (DESIGN.md
	// §7.3); off by default because strict text-format 0.0.4 parsers
	// may reject the suffix.
	Exemplars bool
	// Contention is the hot-key sketch served at /debug/contention and
	// exported as thedb_contention_topk.
	Contention *Contention
	// BootReport is the boot recovery report served at
	// /debug/recovery. It must be JSON-marshalable; a marshal failure
	// is what the endpoint serves.
	BootReport any
}

// Handler returns the exposition mux:
//
//	/metrics           Prometheus text format of the live snapshot
//	/debug/events      flight-recorder dump (merged, time-ordered)
//	/debug/trace       retained transaction traces (JSON), 404 without a Tracer
//	/debug/contention  hot-key sketch snapshot (JSON), 404 without Contention
//	/debug/recovery    boot recovery report (JSON), 404 without a BootReport
//	/debug/pprof/      the standard pprof index (worker goroutines carry
//	                   a thedb_worker label when driven via DoWorker)
func Handler(src Sources) http.Handler {
	var bootJSON []byte
	if src.BootReport != nil {
		var err error
		if bootJSON, err = json.Marshal(src.BootReport); err != nil {
			bootJSON = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var agg *metrics.Aggregate
		if src.Live != nil {
			agg = src.Live()
		}
		var ex *Exemplar
		if t := src.Tracer; t != nil && src.Exemplars {
			if id, us, ok := t.LastSlow(); ok {
				ex = &Exemplar{TraceID: id, ValueUS: us}
			}
		}
		WritePromWith(w, agg, ex)
		if s := src.Server; s != nil {
			WritePromServer(w, s.Snapshot())
		}
		if c := src.Checkpoint; c != nil {
			WritePromCheckpoint(w, c)
		}
		if c := src.Contention; c != nil {
			WritePromContention(w, c)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		t := src.Tracer
		if t == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		total, kept := t.Stats()
		resp := struct {
			SlowThresholdUS int64   `json:"slow_threshold_us"`
			Total           uint64  `json:"total"`
			Kept            uint64  `json:"kept"`
			Traces          []Trace `json:"traces"`
		}{
			SlowThresholdUS: t.SlowThreshold().Microseconds(),
			Total:           total,
			Kept:            kept,
			Traces:          t.Snapshot(),
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/contention", func(w http.ResponseWriter, r *http.Request) {
		c := src.Contention
		if c == nil {
			http.Error(w, "contention profiling not enabled", http.StatusNotFound)
			return
		}
		entries := c.Snapshot()
		type namedEntry struct {
			ContEntry
			TableName string `json:"table_name,omitempty"`
		}
		named := make([]namedEntry, len(entries))
		for i, e := range entries {
			named[i] = namedEntry{ContEntry: e}
			if src.TableName != nil {
				named[i].TableName = src.TableName(e.Table)
			}
		}
		resp := struct {
			K       int          `json:"k"`
			Total   uint64       `json:"total"`
			Entries []namedEntry `json:"entries"`
		}{K: c.K(), Total: c.Total(), Entries: named}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/recovery", func(w http.ResponseWriter, r *http.Request) {
		if bootJSON == nil {
			http.Error(w, "no recovery report (fresh start or report not attached)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(bootJSON)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if src.Recorder == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		src.Recorder.DumpWith(w, src.TableName)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	l net.Listener
	s *http.Server
}

// StartServer listens on addr (host:port; :0 picks a free port) and
// serves h in the background. The caller owns Close.
func StartServer(addr string, h http.Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// Serve returns ErrServerClosed on Shutdown; nothing to do
		// either way — the endpoint is best-effort by design.
		_ = s.Serve(l)
	}()
	return &Server{l: l, s: s}, nil
}

// Addr returns the bound address (useful with :0).
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the endpoint down, waiting briefly for in-flight
// scrapes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.s.Shutdown(ctx)
}

// DoWorker runs fn on the calling goroutine with a pprof label
// identifying the worker, so CPU and goroutine profiles taken through
// the exposition endpoint attribute samples per worker
// (runtime/pprof.Do label propagation).
func DoWorker(id int, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("thedb_worker", strconv.Itoa(id)),
		func(context.Context) { fn() })
}
