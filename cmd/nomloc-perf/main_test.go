package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/wire"
)

const specPath = "../../BENCHMARK.json"

// TestWorkloadsEmitEveryMetric runs each workload, all at once,
// with its phases cut to under half a second, and checks that each run
// passes its checks and measures every metric BENCHMARK.json names.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(runConfig{w: w, seed: 3, phases: phasesFor(0.6), trace: true,
				work: t.TempDir(), log: testWriter{t}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.Problems)
			}
			for _, ms := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
				line, err := resultLine(res, ms)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || len(out.Metrics) != len(ms) {
					t.Fatalf("result line %s", line)
				}
			}
		})
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestDigestDetectsBitFlip(t *testing.T) {
	var recs []*roundRec
	for obj := 0; obj < 2; obj++ {
		for k := 0; k < digestRounds; k++ {
			id := uint64(2*k + obj + 1)
			recs = append(recs, &roundRec{obj: obj, k: k, est: wire.Estimate{
				RoundID: id, ObjectID: "obj", Pos: geom.V(float64(k)/3, 1/float64(id)), RelaxCost: 0.25, NumAnchors: 7,
			}})
		}
	}
	pin, full := estimateDigest(recs, 2)
	if !full {
		t.Fatal("digest over digestRounds rounds per object is not full")
	}
	if p := checkDigest(pin, 1, pin, full); p != "" {
		t.Fatalf("unchanged stream fails: %s", p)
	}
	recs[17].est.Pos.X = math.Float64frombits(math.Float64bits(recs[17].est.Pos.X) ^ 1)
	got, _ := estimateDigest(recs, 2)
	if p := checkDigest(pin, 1, got, true); p == "" {
		t.Fatal("a one-bit flip in one estimate passes the digest check")
	}
	if _, full := estimateDigest(recs[:digestRounds+3], 2); full {
		t.Fatal("a short stream reads as full")
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"faster", parent, scaled(0.8), "lower", 0.1, verdictImproved},
		{"slightly slower", parent, scaled(1.03), "lower", 0.1, verdictNoWorse},
		{"much slower", parent, scaled(1.3), "lower", 0.1, verdictWorse},
		{"less throughput", parent, scaled(0.8), "higher", 0.1, verdictWorse},
		{"more throughput", parent, scaled(1.2), "higher", 0.1, verdictImproved},
		{"noisy parent", wide, scaled(1.05), "lower", 0.1, verdictUnresolved},
		{"noisy parent, every run better", wide, scaled(0.5), "lower", 0.1, verdictImproved},
		{"per-layer", parent, scaled(1.3), "lower", 0, verdictNoBound},
	} {
		if got, _ := verdict(c.parent, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(side string, i int, v float64) string {
		p := filepath.Join(dir, side, string(rune('a'+i))+".json")
		rf := resultsFile{Results: []*result{{Workload: "burst", Metrics: map[string]float64{"cpu_ms_per_round": v}}}}
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var files []string
	for i, v := range parent {
		files = append(files, write("parent", i, v))
	}
	for i, v := range scaled(0.7) {
		files = append(files, write("change", i, v))
	}
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "burst"}},
		EndToEnd:  []metricSpec{{Name: "cpu_ms_per_round", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	var out bytes.Buffer
	if err := compareFiles(files, spec, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1.00  improved") {
		t.Fatalf("compare output lacks the improved verdict:\n%s", out.String())
	}
	if err := compareFiles(files[:3], spec, &out); err == nil {
		t.Fatal("files from one directory compared without error")
	}
}
