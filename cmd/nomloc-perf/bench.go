package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/nomloc/nomloc/internal/telemetry"
)

// setupRepeats is how many times a run sets the workload up, timed;
// setup_s is the median, and the last set-up carries the run.
const setupRepeats = 9

// maxGenLagMS marks a run invalid: the generator itself fell behind.
const maxGenLagMS = 10

// cycles is how many times a run alternates a fixed-rate block with a
// capacity block. A latency, rate or per-round cost is the median of its
// per-block values. Spreading each phase over the whole run, rather than
// running it in one piece, makes every metric sample the same stretch of
// a shared machine's drifting speed, and one slow block does not move
// the median.
const cycles = 16

// phases are a run's phase and block lengths.
type phases struct {
	// warmUp is how long a run keeps setting the workload up, untimed,
	// before the timed set-ups start. On the shared 2-core VM the
	// benchmark was built on, the first second or two of load after idle
	// ran about a third slower, in CPU time as well as wall time. Timed
	// set-ups in that window read slow, and where the window ended moved
	// their median.
	warmUp          time.Duration
	fixed, capacity time.Duration // one block of each
	traced          time.Duration
}

// phasesFor splits the timed seconds two to one between the fixed-rate
// open loop and the closed-loop capacity phase, each cut into cycles
// blocks; the traced pass takes a third of them, at most 5 s. The warm-up
// is 2 s, or a twentieth of the timed seconds in shorter runs.
func phasesFor(seconds float64) phases {
	total := time.Duration(seconds * float64(time.Second))
	return phases{
		warmUp:   min(total/20, 2*time.Second),
		fixed:    total * 2 / 3 / cycles,
		capacity: total / 3 / cycles,
		traced:   min(total/3, 5*time.Second),
	}
}

type runConfig struct {
	w      workload
	seed   int64
	phases phases
	trace  bool
	work   string    // directory for journals
	log    io.Writer // progress lines
}

// result is one workload run: its checks and every metric it measured.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Verified  int                `json:"verified"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`

	spans []span
}

func (res *result) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// counters the server's registry must leave at zero.
var mustBeZero = []string{
	"nomloc_server_degraded_rounds_total",
	"nomloc_server_empty_rounds_total",
	"nomloc_server_solve_errors_total",
	"nomloc_server_duplicate_reports_total",
	"nomloc_server_stale_reports_total",
	"nomloc_server_rounds_timeout_total",
}

// Indices of regSnap.
const (
	regFsyncs = iota
	regBytes
	regGateSum
	regGateN
	regAnchorSum
	regAnchorN
	regJudgeSum
	regJudgeN
	regPivotSum
	regPivotN
	regFields
)

// regSnap is the registry state the per-layer ratios are taken over.
type regSnap [regFields]float64

func snapRegistry(reg *telemetry.Registry) regSnap {
	h := func(name string) (float64, float64) {
		x := reg.Histogram(name, "", nil)
		return x.Sum(), float64(x.Count())
	}
	var s regSnap
	s[regFsyncs] = reg.Counter("nomloc_journal_fsyncs_total", "").Value()
	s[regBytes] = reg.Counter("nomloc_journal_append_bytes_total", "").Value()
	s[regGateSum], s[regGateN] = h("nomloc_server_pool_queue_wait_seconds")
	s[regAnchorSum], s[regAnchorN] = h("nomloc_server_round_anchors")
	s[regJudgeSum], s[regJudgeN] = h("nomloc_solve_judgements")
	s[regPivotSum], s[regPivotN] = h("nomloc_solve_lp_iterations")
	return s
}

// addDelta adds what the registry counted between before and after.
func (s *regSnap) addDelta(before, after regSnap) {
	for i := range s {
		s[i] += after[i] - before[i]
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies returns, for the rounds that succeeded, each round's latency
// (due → Estimate), the mean of its acks' latencies (report written →
// ReportAck), and every ack's latency, in ms.
//
// A round's acks queue behind one another on the server lock, so the
// pooled ack latencies are a mix of queue positions, each later than the
// one before (with a journal, by an append and its fsync), and their
// median sits between the second and third. The per-round mean averages the four positions, and
// its median over rounds is the steadier number.
func latencies(recs []*roundRec) (rounds, roundAcks, acks []float64) {
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		rounds = append(rounds, millis(r.done.Sub(r.due)))
		var sum float64
		for i := range r.written {
			a := millis(r.acked[i].Sub(r.written[i]))
			acks = append(acks, a)
			sum += a
		}
		roundAcks = append(roundAcks, sum/float64(len(r.written)))
	}
	return rounds, roundAcks, acks
}

func failures(recs []*roundRec) int {
	n := 0
	for _, r := range recs {
		if !r.ok() {
			n++
		}
	}
	return n
}

// usage is the process's CPU time and cumulative heap allocation at one
// instant.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	u.alloc = s[0].Value.Uint64()
	return u
}

// setUp builds the inputs, starts a rig on a fresh journal and runs the
// warm-up rounds that fill every object's history.
func setUp(cfg runConfig, i int) (*rig, []int, error) {
	in, err := newInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	dir := ""
	if cfg.w.journal {
		dir = filepath.Join(cfg.work, fmt.Sprintf("%s-journal-%d", cfg.w.name, i))
	}
	r, err := startRig(in, dir)
	if err != nil {
		return nil, nil, err
	}
	next := make([]int, cfg.w.objects)
	warm := r.gen.drive(next, pace{rounds: 2 * in.sites})
	if n := failures(warm); n > 0 {
		return nil, nil, errors.Join(fmt.Errorf("%d warm-up rounds failed", n), r.close())
	}
	return r, next, nil
}

// runWorkload runs every phase of one workload and checks its outputs.
func runWorkload(cfg runConfig) (res *result, err error) {
	w := cfg.w
	res = &result{Workload: w.name, Metrics: make(map[string]float64)}
	m := res.Metrics
	logf := func(format string, args ...any) {
		fmt.Fprintf(cfg.log, "%s: "+format+"\n", append([]any{w.name}, args...)...)
	}

	// Set-up, untimed through the warm-up and then timed several times;
	// the last rig carries the run.
	var r *rig
	var next []int
	var setups []float64
	start := time.Now()
	for i := 0; len(setups) < setupRepeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		r, next, err = setUp(cfg, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if t.Sub(start) >= cfg.phases.warmUp {
			setups = append(setups, time.Since(t).Seconds())
		}
	}
	defer func() { err = errors.Join(err, r.close()) }()
	m["setup_s"] = median(setups)
	logf("set up in %.3f s (median of %d)", m["setup_s"], setupRepeats)

	// The timed blocks, with the restart halfway through.
	var st blockStats
	var js *journalStats
	var first, fixed, capacity []*roundRec
	for c := 0; c < cycles; c++ {
		if w.journal && c == cycles/2 {
			if js, err = r.restart(); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			logf("restarted: recover %.1f ms, verify %.1f ms", js.recoverMS, js.verifyMS)
		}
		f := fixedBlock(r, next, cfg.phases.fixed, &st)
		if c == 0 {
			// The server has served a fixed number of rounds by now.
			first = f
			m["live_heap_mb"] = liveHeapMB()
		}
		fixed = append(fixed, f...)
		capacity = append(capacity, capacityBlock(r, next, cfg.phases.capacity, &st)...)
	}
	st.report(fixed, m)
	logf("fixed rate: %d rounds at %g/s, round p50 %.3f ms", len(fixed), w.rate, m["round_p50_ms"])
	logf("capacity: %.1f rounds/s, %.3f ms CPU per round", m["capacity_rounds_per_s"], m["cpu_ms_per_round"])
	res.Attempted = len(fixed) + len(capacity)
	res.Failed = failures(fixed) + failures(capacity)

	if cfg.trace {
		traced := tracedPhase(r, next, cfg.phases.traced, res)
		res.Attempted += len(traced)
		res.Failed += failures(traced)
		dir := filepath.Join(cfg.work, w.name+"-replay")
		rjs, err := replayPhase(r.in, traced, dir, m)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		if js == nil {
			// No server journal: the restart diagnostics come from the
			// replay's journal in the workload's mode.
			js = rjs
		}
		logf("traced pass: %d rounds, trace overhead %+.1f%%", len(traced), m["bench.trace_overhead_pct"])
	}
	if js != nil {
		m["journal.snapshot_ms"] = js.snapshotMS
		m["journal.recover_ms"] = js.recoverMS
		m["journal.verify_ms"] = js.verifyMS
		if !js.verify.Clean() {
			res.problem("journal.Verify: %d diffs, first %+v", len(js.verify.Diffs), js.verify.Diffs[0])
		}
	}

	if err := checkRun(cfg, r, first, fixed, capacity, res); err != nil {
		return nil, err
	}
	logf("checks: %d estimates re-derived, %d problems", res.Verified, len(res.Problems))
	return res, nil
}

// blockStats gathers each timed block's values.
type blockStats struct {
	round50, round90, ack50, ack90 []float64 // fixed-rate blocks, ms
	rate, cpu, alloc               []float64 // capacity blocks
	capacityRounds                 int
	reg                            regSnap // summed over the fixed-rate blocks
}

// fixedBlock runs the open loop at the workload's rate for d.
func fixedBlock(r *rig, next []int, d time.Duration, st *blockStats) []*roundRec {
	w := r.in.w
	before := snapRegistry(r.reg)
	recs := r.gen.drive(next, pace{rate: w.rate, rounds: w.roundsPerObject(d)})
	st.reg.addDelta(before, snapRegistry(r.reg))
	rounds, roundAcks, acks := latencies(recs)
	if len(rounds) > 0 {
		st.round50 = append(st.round50, percentile(rounds, 50))
		st.round90 = append(st.round90, percentile(rounds, 90))
		st.ack50 = append(st.ack50, percentile(roundAcks, 50))
		st.ack90 = append(st.ack90, percentile(acks, 90))
	}
	return recs
}

// capacityBlock runs the closed loop for d and reads the process's CPU
// time and allocation before and after; the block ends when its last
// round completes.
func capacityBlock(r *rig, next []int, d time.Duration, st *blockStats) []*roundRec {
	a := readUsage()
	recs := r.gen.drive(next, pace{until: a.at.Add(d)})
	b := readUsage()
	st.capacityRounds += len(recs)
	if n := float64(len(recs)); n > 0 {
		st.rate = append(st.rate, n/b.at.Sub(a.at).Seconds())
		st.cpu = append(st.cpu, millis(b.cpu-a.cpu)/n)
		st.alloc = append(st.alloc, float64(b.alloc-a.alloc)/1024/n)
	}
	return recs
}

// report records the block medians, the tails over every fixed-rate
// round, and the registry ratios over the fixed-rate blocks.
func (st *blockStats) report(fixed []*roundRec, m map[string]float64) {
	m["round_p50_ms"], m["server.round_p90_ms"] = median(st.round50), median(st.round90)
	m["ack_p50_ms"], m["server.ack_p90_ms"] = median(st.ack50), median(st.ack90)
	m["capacity_rounds_per_s"] = median(st.rate)
	m["cpu_ms_per_round"] = median(st.cpu)
	m["alloc_kb_per_round"] = median(st.alloc)
	m["bench.rounds_capacity"] = float64(st.capacityRounds)

	rounds, _, acks := latencies(fixed)
	m["server.round_p99_ms"] = percentile(rounds, 99)
	m["server.ack_p99_ms"] = percentile(acks, 99)
	var lags []float64
	for _, rr := range fixed {
		lags = append(lags, millis(rr.begin.Sub(rr.ready)))
	}
	m["bench.gen_lag_p99_ms"] = percentile(lags, 99)
	n := float64(len(fixed))
	m["bench.rounds_fixed"] = n
	g := st.reg
	m["server.gate_wait_us"] = ratio(g[regGateSum], g[regGateN]) * 1e6
	m["server.anchors_per_round"] = ratio(g[regAnchorSum], g[regAnchorN])
	m["journal.fsyncs_per_round"] = ratio(g[regFsyncs], n)
	m["journal.bytes_per_round"] = ratio(g[regBytes], n)
	m["core.judgements_per_solve"] = ratio(g[regJudgeSum], g[regJudgeN])
	m["lp.pivots_per_piece"] = ratio(g[regPivotSum], g[regPivotN])
}

// liveHeapMB collects garbage and returns the heap still in use. The
// second collection frees what sync.Pool victim caches kept through the
// first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracedPhase reruns the open loop for d with spans recorded and derives
// the server-boundary metrics from them.
func tracedPhase(r *rig, next []int, d time.Duration, res *result) []*roundRec {
	w, m := r.in.w, res.Metrics
	r.gen.setTracing(true)
	traced := r.gen.drive(next, pace{rate: w.rate, rounds: w.roundsPerObject(d)})
	res.spans = r.gen.setTracing(false)
	rounds, _, _ := latencies(traced)
	m["bench.trace_overhead_pct"] = 100 * (median(rounds) - m["round_p50_ms"]) / m["round_p50_ms"]
	m["server.fanout_p50_us"] = median(spanMicros(res.spans, spanFanout))
	fin := spanMicros(res.spans, spanFinalize)
	m["server.finalize_p50_us"] = median(fin)
	m["server.finalize_p90_us"] = percentile(fin, 90)
	m["wire.encode_report_us"] = median(spanMicros(res.spans, spanEncode))
	return traced
}

// replayPhase runs the layer replay in dir and records its per-call
// medians. It returns the diagnostics of the replay's workload-mode
// journal.
func replayPhase(in *inputs, traced []*roundRec, dir string, m map[string]float64) (*journalStats, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rt, err := layerReplay(in, traced, dir)
	if err != nil {
		return nil, err
	}
	m["wire.decode_report_us"] = median(rt.decode)
	m["wire.report_frame_kb"] = mean(rt.frameBytes) / 1024
	m["wire.encode_allocs_per_report"] = rt.encodeAllocs
	m["wire.decode_allocs_per_report"] = rt.decodeAllocs
	m["journal.append_report_p50_us"] = median(rt.appendReport)
	m["journal.append_report_p90_us"] = percentile(rt.appendReport, 90)
	m["journal.append_report_nosync_us"] = median(rt.appendNoSync)
	m["journal.append_round_us"] = median(rt.appendRound)
	m["journal.apply_report_us"] = median(rt.apply)
	m["core.solve_reports_us"] = median(rt.solve)
	m["core.pdp_us_per_report"] = median(rt.pdp)
	m["dsp.direct_path_power_us"] = median(rt.dpp)
	m["core.locate_us"] = median(rt.locate)
	return measureJournal(rt.journalDir, !in.w.journal)
}

// checkRun re-derives every fixed-rate estimate and one in eight of the
// capacity blocks', checks the digest of the first fixed-rate block, and
// requires the server's failure counters, the generator's stray errors
// and the failed rounds to be zero.
func checkRun(cfg runConfig, r *rig, first, fixed, capacity []*roundRec, res *result) error {
	check := append([]*roundRec(nil), fixed...)
	for _, rr := range capacity {
		if rr.k%8 == 0 {
			check = append(check, rr)
		}
	}
	n, problems, err := rederive(r.in, check)
	if err != nil {
		return err
	}
	res.Verified = n
	res.Problems = append(res.Problems, problems...)
	var full bool
	res.Digest, full = estimateDigest(first, cfg.w.objects)
	if p := checkDigest(pinnedDigests[cfg.w.name], cfg.seed, res.Digest, full); p != "" {
		res.problem("%s", p)
	}
	for _, name := range mustBeZero {
		if v := r.reg.Counter(name, "").Value(); v != 0 {
			res.problem("%s = %g", name, v)
		}
	}
	for _, s := range append(r.stray, r.gen.strays()...) {
		res.problem("generator: %s", s)
	}
	if res.Failed > 0 {
		res.problem("%d of %d rounds failed", res.Failed, res.Attempted)
	}
	res.Correct = len(res.Problems) == 0
	res.Valid = res.Metrics["bench.gen_lag_p99_ms"] <= maxGenLagMS
	return nil
}
