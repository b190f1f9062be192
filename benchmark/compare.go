package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (*benchSpec, error) {
	var last error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		buf, err := os.ReadFile(path)
		if err != nil {
			last = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(buf, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, last
}

// values collects one workload's untraced runs' values of one metric.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced && r.Correct {
			v = append(v, r.Metrics[metric])
		}
	}
	return v
}

func readResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges b against a on one metric: "regressed" when b's median
// is worse than a's by more than bound, else "unresolved" when either
// side's interquartile spread is wider than the bound (the runs cannot
// tell a change of that size from noise), else "ok". worse is b's
// relative change in the bad direction.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (v string, worse, spr float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if higherIsBetter {
		worse = -worse
	}
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	switch {
	case worse > bound:
		return "regressed", worse, spr
	case spr > bound:
		return "unresolved", worse, spr
	}
	return "ok", worse, spr
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any regressed.
func compareFiles(pathA, pathB string, w io.Writer) (regressed bool, err error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.name, m.Name), b.values(wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7s %6.1f%%  missing\n", wl.name, m.Name, "-", "-", "-", "-", 100*m.Bound)
				continue
			}
			v, worse, spr := verdict(va, vb, m.Better == "higher", m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.name, m.Name, median(va), median(vb), 100*worse, 100*spr, 100*m.Bound, v)
		}
	}
	return regressed, nil
}
