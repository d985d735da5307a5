package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/dsp"
	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/wire"
)

// replayRounds caps the rounds the layer replay feeds through each layer,
// which bounds its fsyncs and solves; workloads with long bursts replay
// fewer rounds, so every replay journal holds at most 64·25 packets per
// AP.
func replayRounds(packets int) int { return min(64, 64*25/packets) }

// replayTimes are per-call durations (µs) of each layer in the replay.
type replayTimes struct {
	encode, decode, apply        []float64
	appendReport, appendNoSync   []float64
	appendRound, solve, pdp, dpp []float64
	locate                       []float64
	frameBytes                   []float64
	encodeAllocs, decodeAllocs   float64
	journalDir                   string // the workload-mode journal
}

// canonical returns a copy of hist in the server's solve order.
func canonical(hist []*wire.CSIReport) []*wire.CSIReport {
	out := append([]*wire.CSIReport(nil), hist...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].APID != out[j].APID {
			return out[i].APID < out[j].APID
		}
		return out[i].SiteIndex < out[j].SiteIndex
	})
	return out
}

// layerReplay feeds the traced pass's first rounds, in send order (each
// object's round order), through each layer's public functions one call
// at a time: the wire codec, journal.ApplyReport, AppendReport and
// AppendRoundSolved into a fresh journal in the workload's mode and again
// with NoSync, journal.SolveReports, core.EstimatePDP, Locate and
// dsp.DirectPathPower. Each object's history is first primed with the
// rounds before its first replayed one, so solves see full histories.
func layerReplay(in *inputs, traced []*roundRec, dir string) (*replayTimes, error) {
	recs := append([]*roundRec(nil), traced...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].due.Before(recs[j].due) })
	if n := replayRounds(in.w.packets); len(recs) > n {
		recs = recs[:n]
	}
	rt := &replayTimes{journalDir: filepath.Join(dir, "workload-mode")}
	jw, err := journal.Open(journal.Options{Dir: rt.journalDir, NoSync: !in.w.journal})
	if err != nil {
		return nil, err
	}
	jn, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "nosync"), NoSync: true})
	if err != nil {
		return nil, errors.Join(err, jw.Close())
	}
	err = replayInto(rt, in, recs, jw, jn)
	if err = errors.Join(err, jw.Close(), jn.Close()); err != nil {
		return nil, err
	}
	return rt, nil
}

func replayInto(rt *replayTimes, in *inputs, recs []*roundRec, jw, jn *journal.Journal) error {
	loc, err := core.New(core.Config{Area: in.area})
	if err != nil {
		return err
	}
	meta := journal.Meta{ServerID: "nomloc-server", AreaVertices: in.area.Vertices(), MaxNomadicSites: maxNomadicSites}
	if err := errors.Join(jw.AppendMeta(meta), jn.AppendMeta(meta)); err != nil {
		return err
	}
	timed := func(into *[]float64, f func() error) error {
		t := time.Now()
		err := f()
		*into = append(*into, micros(time.Since(t)))
		return err
	}
	hist := make([][]*wire.CSIReport, len(in.objects))
	primed := make([]bool, len(in.objects))
	var reports []*wire.CSIReport
	var frames [][]byte
	for _, r := range recs {
		obj, id := r.obj, in.objects[r.obj]
		if !primed[obj] {
			for k := max(r.k-in.sites, 0); k < r.k; k++ {
				for a := range in.aps {
					hist[obj], _ = journal.ApplyReport(hist[obj], in.report(obj, k, a), maxNomadicSites)
				}
			}
			primed[obj] = true
		}
		for a := range in.aps {
			rep := in.report(obj, r.k, a)
			reports = append(reports, rep)
			var buf bytes.Buffer
			if err := timed(&rt.encode, func() error { return wire.WriteMessage(&buf, rep) }); err != nil {
				return err
			}
			frames = append(frames, buf.Bytes())
			rt.frameBytes = append(rt.frameBytes, float64(buf.Len()))
			if err := timed(&rt.decode, func() error { _, err := wire.DecodeMessage(buf.Bytes()); return err }); err != nil {
				return err
			}
			_ = timed(&rt.apply, func() error {
				hist[obj], _ = journal.ApplyReport(hist[obj], rep, maxNomadicSites)
				return nil
			})
			if err := timed(&rt.appendReport, func() error { return jw.AppendReport(id, rep) }); err != nil {
				return err
			}
			if err := timed(&rt.appendNoSync, func() error { return jn.AppendReport(id, rep) }); err != nil {
				return err
			}
		}

		sorted := canonical(hist[obj])
		var est *core.Estimate
		if err := timed(&rt.solve, func() (err error) { est, err = journal.SolveReports(loc, sorted); return err }); err != nil {
			return fmt.Errorf("replay solve round %d: %w", r.id, err)
		}
		anchors := make([]core.Anchor, len(sorted))
		for i, rep := range sorted {
			var p core.PDPEstimate
			if err := timed(&rt.pdp, func() (err error) { p, err = core.EstimatePDP(&rep.Batch); return err }); err != nil {
				return err
			}
			for _, s := range rep.Batch.Samples {
				if err := timed(&rt.dpp, func() error { _, _, err := dsp.DirectPathPower(s.CSI); return err }); err != nil {
					return err
				}
			}
			kind := core.StaticAP
			if rep.Nomadic {
				kind = core.NomadicSite
			}
			anchors[i] = core.Anchor{APID: rep.APID, SiteIndex: rep.SiteIndex, Kind: kind, Pos: rep.Pos, PDP: p.Power}
		}
		if err := timed(&rt.locate, func() error { _, err := loc.Locate(anchors); return err }); err != nil {
			return err
		}
		rs := journal.RoundSolved{
			Estimate: wire.Estimate{RoundID: r.id, ObjectID: id, Pos: est.Position, RelaxCost: est.RelaxCost, NumAnchors: len(sorted)},
			Anchors:  make([]journal.AnchorRef, len(sorted)),
		}
		for i, rep := range sorted {
			rs.Anchors[i] = journal.AnchorRef{APID: rep.APID, SiteIndex: rep.SiteIndex, RoundID: rep.RoundID}
		}
		if err := timed(&rt.appendRound, func() error { return jw.AppendRoundSolved(rs) }); err != nil {
			return err
		}
		if err := jn.AppendRoundSolved(rs); err != nil {
			return err
		}
	}

	// Allocation counts come from whole-process malloc deltas over loops
	// that do nothing else; the server is idle meanwhile.
	var buf bytes.Buffer
	rt.encodeAllocs = allocsPerCall(len(reports), func(i int) {
		buf.Reset()
		_ = wire.WriteMessage(&buf, reports[i])
	})
	rt.decodeAllocs = allocsPerCall(len(frames), func(i int) { _, _ = wire.DecodeMessage(frames[i]) })
	return nil
}

func allocsPerCall(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
