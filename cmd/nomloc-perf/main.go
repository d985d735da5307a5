// Command nomloc-perf is NomLoc's serving benchmark. It runs the real
// localization server in-process on loopback TCP, configured as
// nomloc-server is by default, and drives it at the wire level from one
// generator over five connections: one per AP, answering each forwarded
// RoundStart with a pre-generated CSIReport, and one object connection
// carrying every logical object's RoundStarts. It measures the end-to-end
// and per-layer metrics BENCHMARK.json names, checks every estimate, and
// writes a results JSON. Run it from the repository root:
//
//	bash cmd/nomloc-perf/run.sh -seed 1                 # every workload, every metric
//	bash cmd/nomloc-perf/run.sh --workload burst --seed 2 --seconds 36 --trace 0
//	bash cmd/nomloc-perf/run.sh -compare parent/*.json change/*.json
//
// Exit status: 0 when every check passes, 1 on a failed check or an
// error, 2 when the run is invalid because the generator lagged.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metrics to report, in which unit, and the bounds -compare judges by.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// identity describes the machine and build a results file came from.
type identity struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	JournalFS  string  `json:"journal_fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// resultsFile is what a run writes to -out and -compare reads.
type resultsFile struct {
	Identity identity  `json:"identity"`
	Results  []*result `json:"results"`
}

func newIdentity(work string, seed int64, seconds float64, trace bool) identity {
	id := identity{Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), JournalFS: fsName(work), Seed: seed, Seconds: seconds, Trace: trace}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				id.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				id.Commit += "+dirty"
			}
		}
	}
	return id
}

// fsName names the filesystem holding dir, as far as the benchmark
// distinguishes them.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nomloc-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and end with the one-line JSON result; empty runs every workload")
	seed := fs.Int64("seed", 1, "input seed: object placement, CSI noise, per-round phasors")
	seconds := fs.Float64("seconds", 45, "timed seconds per workload: two thirds at the fixed rate, one third closed-loop, in alternating blocks")
	trace := fs.Int("trace", 1, "1 adds the traced pass and the layer replay, and reports per-layer metrics; 0 skips them")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans as JSON to this file")
	out := fs.String("out", "", "results JSON (default .bench_build/nomloc-perf/results-seed<seed>.json)")
	work := fs.String("work", filepath.Join(".bench_build", "nomloc-perf"), "directory for the journals")
	compare := fs.Bool("compare", false, "compare result files grouped by directory: -compare parent/*.json change/*.json")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nomloc-perf:", err)
		return 1
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	if *compare {
		if err := compareFiles(fs.Args(), spec, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}

	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return fail(err)
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	file := resultsFile{Identity: newIdentity(*work, *seed, *seconds, *trace == 1)}
	id := file.Identity
	fmt.Fprintf(stdout, "nomloc-perf: commit %s, %s, GOMAXPROCS %d, nproc %d, journal on %s; traffic is loopback TCP, not a real link\n",
		id.Commit, id.Go, id.GOMAXPROCS, id.NumCPU, id.JournalFS)
	var traces []traceFile
	for _, w := range todo {
		fmt.Fprintf(stdout, "\n== %s (seed %d): %s\n", w.name, *seed, w.describe())
		res, err := runWorkload(runConfig{w: w, seed: *seed, phases: phasesFor(*seconds), trace: *trace == 1, work: *work, log: stderr})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(stdout, spec, res, *trace == 1)
		file.Results = append(file.Results, res)
		if res.spans != nil {
			traces = append(traces, newTraceFile(w.name, res.spans))
		}
	}

	if *out == "" {
		*out = filepath.Join(".bench_build", "nomloc-perf", fmt.Sprintf("results-seed%d.json", *seed))
	}
	if err := writeJSON(*out, file); err != nil {
		return fail(err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, traces); err != nil {
			return fail(err)
		}
	}
	code := 0
	for _, res := range file.Results {
		if !res.Correct {
			code = 1
		} else if !res.Valid && code == 0 {
			code = 2
		}
	}
	if *name != "" {
		res := file.Results[0]
		metrics := spec.EndToEnd
		if *trace == 1 {
			metrics = spec.PerLayer
		}
		line, err := resultLine(res, metrics)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, line)
	}
	return code
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints every metric the run measured, by name and unit,
// then the checks.
func printResult(w io.Writer, spec *benchSpec, res *result, traced bool) {
	show := func(title string, ms []metricSpec) {
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	show("end to end:", spec.EndToEnd)
	fmt.Fprintf(w, "  failed rounds: %d of %d attempted\n", res.Failed, res.Attempted)
	if traced {
		show("per layer:", spec.PerLayer)
	}
	fmt.Fprintf(w, "checks: %d estimates re-derived bit-exactly through ApplyReport and SolveReports; digest %s\n", res.Verified, res.Digest)
	if !res.Valid {
		fmt.Fprintf(w, "INVALID: generator lag p99 %.3f ms exceeds %d ms\n", res.Metrics["bench.gen_lag_p99_ms"], maxGenLagMS)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
}

// resultLine renders the one-line JSON result: the checks and the chosen
// metrics with their units.
func resultLine(res *result, metrics []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(metrics))
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		vals[m.Name] = value{Value: v, Unit: m.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, vals})
	return string(buf), err
}
