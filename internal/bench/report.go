// Package bench regenerates every table and figure of the paper's
// evaluation (§5 and the appendices). Each experiment builds the
// database fresh, drives the configured workers in closed loops for a
// fixed duration, and prints the same rows or series the paper
// reports. The "cores" axis of the paper maps to concurrent workers
// here (see DESIGN.md §1.1), so shapes — who wins, by what factor,
// where crossovers fall — are the reproduction target, not absolute
// numbers.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// Table is one printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f formats a float compactly.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ktps formats a throughput in K transactions per second.
func ktps(tps float64) string { return fmt.Sprintf("%.1f", tps/1000) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Sampler collects latency samples (µs) for percentile and
// bucket-share reporting, as the paper's Tables 1, 3 and 5 do.
type Sampler struct {
	vals []float64
}

// Observe records one latency in microseconds.
func (s *Sampler) Observe(us float64) { s.vals = append(s.vals, us) }

// Merge folds another sampler in.
func (s *Sampler) Merge(o *Sampler) { s.vals = append(s.vals, o.vals...) }

// Len returns the sample count.
func (s *Sampler) Len() int { return len(s.vals) }

// Percentile returns the p-th percentile (p in [0,100]).
func (s *Sampler) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	v := append([]float64(nil), s.vals...)
	sort.Float64s(v)
	return v[int(p/100*float64(len(v)-1))]
}

// Share returns the fraction of samples in [lo, hi) µs.
func (s *Sampler) Share(lo, hi float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.vals {
		if v >= lo && v < hi {
			n++
		}
	}
	return float64(n) / float64(len(s.vals))
}
