package nomloc_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/nomloc/nomloc/internal/channel"
	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/deploy"
	"github.com/nomloc/nomloc/internal/dsp"
	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/wire"
)

// allocBudget is a ceiling on the heap allocations of one call.
type allocBudget struct {
	name   string
	allocs float64 // allocations per call
	bytes  float64 // bytes allocated per call
	call   func()
}

// TestAllocationBudgets holds the serving path's per-call allocations to
// ceilings. Allocation counts do not drift with machine load, so these
// gates catch a regression that timing on a shared machine would blur.
// Each count ceiling is the measured count plus half an allocation, which
// absorbs the runtime's own background allocations but not one more per
// call; each byte ceiling is the measurement rounded up to 64 B, plus
// 64 B. A change that lowers a ceiling lowers it here in the same diff;
// raising one is a regression that needs a stated reason.
func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	in := budgetInputs(t)
	var buf bytes.Buffer
	var frames bytes.Reader
	// A segment roll allocates; this journal never rolls.
	jnl, err := journal.Open(journal.Options{Dir: t.TempDir(), NoSync: true, SegmentMaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	// ReadMessage allocates what DecodeMessage does. Its 0.2 more per call
	// at 100 packets come with the collections the calls trigger: with
	// collection off, both make 104.0 allocations of 56,310 B.
	budgets := []allocBudget{
		{"wire.WriteMessage/25", 0, 0, func() { buf.Reset(); _ = wire.WriteMessage(&buf, in.report25) }},
		{"wire.WriteMessage/100", 0, 0, func() { buf.Reset(); _ = wire.WriteMessage(&buf, in.report100) }},
		{"wire.ReadMessage/25", 29.5, 14272, func() { frames.Reset(in.frame25); _, _ = wire.ReadMessage(&frames) }},
		{"wire.ReadMessage/100", 104.7, 56448, func() { frames.Reset(in.frame100); _, _ = wire.ReadMessage(&frames) }},
		{"wire.DecodeMessage/25", 29.5, 14272, func() { _, _ = wire.DecodeMessage(in.frame25) }},
		{"wire.DecodeMessage/100", 104.5, 56384, func() { _, _ = wire.DecodeMessage(in.frame100) }},
		{"journal.AppendReport/25", 0, 0, func() { _ = jnl.AppendReport("object-1", in.report25) }},
		{"journal.AppendReport/100", 0, 0, func() { _ = jnl.AppendReport("object-1", in.report100) }},
		{"journal.ApplyReport", 0, 0, func() { in.history, _ = journal.ApplyReport(in.history, in.history[0], 4) }},
		{"journal.SolveReports/8", 42.5, 9088, func() { _, _ = journal.SolveReports(in.loc, in.history) }},
		{"core.EstimatePDP/25", 1.5, 480, func() { _, _ = core.EstimatePDP(&in.report25.Batch) }},
		{"dsp.DirectPathPower/30", 0, 0, func() { _, _, _ = dsp.DirectPathPower(in.report25.Batch.Samples[0].CSI) }},
		{"channel.MeasureBatch/25", 53.5, 21376, func() {
			in.sim.MeasureBatch("ap2", 0, in.object, in.apPos, 25, in.epoch, in.rng)
		}},
		{"core.Localizer.Locate/8", 37.5, 10048, func() { _, _ = in.loc.Locate(in.anchors) }},
	}
	for _, b := range budgets {
		allocs, bytes := perCall(b.call)
		t.Logf("%s: %.1f allocs, %.0f bytes per call", b.name, allocs, bytes)
		if allocs > b.allocs {
			t.Errorf("%s: %.1f allocations per call, budget %.1f", b.name, allocs, b.allocs)
		}
		if bytes > b.bytes {
			t.Errorf("%s: %.0f bytes per call, budget %.0f", b.name, bytes, b.bytes)
		}
	}
}

// perCall measures f's mean heap allocations and bytes over many calls,
// after one warm-up call, on one P as testing.AllocsPerRun does.
func perCall(f func()) (allocs, bytes float64) {
	const runs = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// budgetSet is the realistic input each budget runs on: office-floor
// reports at the agent's default 25 packets and at 100, and the 8-anchor
// history of the office-default workload — three static APs and five
// sites of the nomadic one.
type budgetSet struct {
	sim                 *channel.Simulator
	rng                 *rand.Rand
	object, apPos       geom.Vec
	epoch               time.Time
	report25, report100 *wire.CSIReport
	frame25, frame100   []byte
	history             []*wire.CSIReport
	anchors             []core.Anchor
	loc                 *core.Localizer
}

func budgetInputs(t *testing.T) *budgetSet {
	t.Helper()
	scn, err := deploy.Office()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := scn.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := core.New(core.Config{Area: scn.Area})
	if err != nil {
		t.Fatal(err)
	}
	in := &budgetSet{sim: sim, rng: rand.New(rand.NewSource(1)), object: scn.TestSites[0],
		apPos: scn.StaticAPs[0].Pos, epoch: time.Unix(1700000000, 0).UTC(), loc: loc}
	report := func(id string, site int, pos geom.Vec, packets int) *wire.CSIReport {
		return &wire.CSIReport{RoundID: 1, APID: id, SiteIndex: site, Pos: pos, Nomadic: site > 0,
			Batch: sim.MeasureBatch(id, site, in.object, pos, packets, in.epoch, in.rng)}
	}
	for _, ap := range scn.StaticAPs {
		in.history = append(in.history, report(ap.ID, 0, ap.Pos, 25))
	}
	for i, pos := range scn.Nomadic.AllSites() {
		in.history = append(in.history, report(scn.Nomadic.ID, i+1, pos, 25))
	}
	if len(in.history) != 8 {
		t.Fatalf("history holds %d reports, want 8", len(in.history))
	}
	for _, rep := range in.history {
		pdp, err := core.EstimatePDP(&rep.Batch)
		if err != nil {
			t.Fatal(err)
		}
		kind := core.StaticAP
		if rep.Nomadic {
			kind = core.NomadicSite
		}
		in.anchors = append(in.anchors, core.Anchor{APID: rep.APID, SiteIndex: rep.SiteIndex, Kind: kind, Pos: rep.Pos, PDP: pdp.Power})
	}
	in.report25 = in.history[0]
	in.report100 = report(scn.StaticAPs[0].ID, 0, in.apPos, 100)
	frame := func(rep *wire.CSIReport) []byte {
		var buf bytes.Buffer
		if err := wire.WriteMessage(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	in.frame25, in.frame100 = frame(in.report25), frame(in.report100)
	return in
}
