package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of -compare.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "no bound"
)

// verdict judges one workload × metric from paired runs; pairs are
// parent[i] with change[i]. A gain needs the change to win at least nine
// tenths of the pairs (ties count for neither) and the medians to differ
// by more than the parent's quartile spread. A metric whose parent spread
// exceeds its bound is unresolved unless every change run beats every
// parent run; otherwise it is worse when the change's median is worse
// than the parent's by more than the bound.
func verdict(parent, change []float64, better string, bound float64) (v string, wins float64) {
	lower := better == "lower"
	beats := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	pairs := min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if beats(change[i], parent[i]) {
			wins++
		}
	}
	if pairs > 0 {
		wins /= float64(pairs)
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if wins >= 0.9 && beats(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return verdictImproved, wins
	}
	if bound <= 0 {
		return verdictNoBound, wins
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && beats(c, p)
		}
	}
	scale := math.Abs(pm)
	if scale == 0 {
		scale = 1
	}
	if (q3-q1)/scale > bound && !allBetter {
		return verdictUnresolved, wins
	}
	worseBy := (cm - pm) / scale
	if !lower {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return verdictWorse, wins
	}
	return verdictNoWorse, wins
}

// compareFiles reads results files, groups them by directory (the first
// directory named is the parent, the second the change), pairs them in
// file-name order, and prints a verdict for every workload × metric.
func compareFiles(paths []string, spec *benchSpec, w io.Writer) error {
	var dirs []string
	groups := make(map[string][]string)
	for _, p := range paths {
		d := filepath.Dir(p)
		if _, ok := groups[d]; !ok {
			dirs = append(dirs, d)
		}
		groups[d] = append(groups[d], p)
	}
	if len(dirs) != 2 {
		return fmt.Errorf("-compare needs result files from exactly two directories (parent, change), got %d", len(dirs))
	}
	load := func(dir string) (map[string][]map[string]float64, error) {
		files := groups[dir]
		sort.Strings(files)
		out := make(map[string][]map[string]float64)
		for _, f := range files {
			buf, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var rf resultsFile
			if err := json.Unmarshal(buf, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			for _, r := range rf.Results {
				out[r.Workload] = append(out[r.Workload], r.Metrics)
			}
		}
		return out, nil
	}
	parent, err := load(dirs[0])
	if err != nil {
		return err
	}
	change, err := load(dirs[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parent %s (%d files), change %s (%d files); medians with [q1, q3]\n",
		dirs[0], len(groups[dirs[0]]), dirs[1], len(groups[dirs[1]]))
	fmt.Fprintf(w, "%-15s %-34s %-34s %-34s %5s  %s\n", "workload", "metric", "parent", "change", "wins", "verdict")
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			pv, cv := values(parent[wl.Name], m.Name), values(change[wl.Name], m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, wins := verdict(pv, cv, m.Better, m.Bound)
			fmt.Fprintf(w, "%-15s %-34s %-34s %-34s %5.2f  %s\n", wl.Name, m.Name+" ("+m.Unit+")",
				summary(pv), summary(cv), wins, v)
		}
	}
	return nil
}

func values(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
