package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// span is one benchmark-side trace record: a call into a layer, timed
// from outside. Start and End are nanoseconds since the pass began.
// Spans of one transaction share Txn; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Txn    uint64 `json:"txn,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRingCap bounds each ring: the trace file keeps the newest spans
// of every caller and background stream, not the whole pass.
const spanRingCap = 1 << 14

// spanRing keeps the newest spanRingCap spans of one goroutine (a
// caller, a WAL stream, the checkpoint driver). The mutex is only ever
// contended on the WAL rings, which a worker and the epoch advancer
// share.
type spanRing struct {
	mu  sync.Mutex
	buf []span
	n   int
}

func (r *spanRing) add(s span) {
	r.mu.Lock()
	if len(r.buf) < spanRingCap {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.n%spanRingCap] = s
	}
	r.n++
	r.mu.Unlock()
}

// tracer hands out span IDs and rings for one traced pass.
type tracer struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	rings  []*spanRing
}

func (t *tracer) ring() *spanRing {
	r := &spanRing{}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// spans returns every retained span, ordered by start time.
func (t *tracer) spans() []span {
	var all []span
	t.mu.Lock()
	for _, r := range t.rings {
		r.mu.Lock()
		all = append(all, r.buf...)
		r.mu.Unlock()
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once; children are clipped to the parent).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotal is one row of the trace file's summary: all retained spans
// of one name.
type spanTotal struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	byName := map[string]*spanTotal{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalNS += s.End - s.Start
		t.SelfNS += self[s.ID]
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeTrace writes the retained spans and their per-name totals to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Totals   []spanTotal `json:"totals"`
		Spans    []span      `json:"spans"`
	}{workload, spanTotals(spans), spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}
