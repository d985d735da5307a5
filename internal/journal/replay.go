package journal

import (
	"fmt"
	"math"
	"os"
	"strconv"

	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/wire"
)

// SolveReports converts a canonical-order report set into anchors and
// runs the SP localization pipeline. The server's live solve path and the
// journal replayer share this single implementation, so a replay
// re-executes solves bit-for-bit — any drift would be a diff, not a
// silent divergence.
//
//nomloc:effect(globalread)
func SolveReports(loc *core.Localizer, reports []*wire.CSIReport) (*core.Estimate, error) {
	anchors := make([]core.Anchor, 0, len(reports))
	for _, rep := range reports {
		est, err := core.EstimatePDP(&rep.Batch)
		if err != nil {
			return nil, fmt.Errorf("pdp for %s#%d: %w", rep.APID, rep.SiteIndex, err)
		}
		kind := core.StaticAP
		if rep.Nomadic {
			kind = core.NomadicSite
		}
		anchors = append(anchors, core.Anchor{
			APID:      rep.APID,
			SiteIndex: rep.SiteIndex,
			Kind:      kind,
			Pos:       rep.Pos,
			PDP:       est.Power,
		})
	}
	return loc.Locate(anchors)
}

// Diff is one disagreement between a recorded estimate and its re-solved
// counterpart. Float fields compare bit-exactly (math.Float64bits): the
// replay contract is byte determinism, not tolerance.
type Diff struct {
	// RoundID / ObjectID identify the estimate.
	RoundID  uint64 `json:"roundId"`
	ObjectID string `json:"objectId"`
	// Field names the disagreeing field (pos.x, pos.y, relaxCost,
	// numAnchors, solveError).
	Field string `json:"field"`
	// Recorded / Replayed render both sides for the report.
	Recorded string `json:"recorded"`
	Replayed string `json:"replayed"`
}

// VerifyResult summarizes one verification pass over a journal.
type VerifyResult struct {
	// Meta is the journal's meta record.
	Meta Meta `json:"meta"`
	// Records counts every record scanned from segments.
	Records int `json:"records"`
	// Rounds counts the round-solved records seen (snapshot-covered
	// estimates excluded).
	Rounds int `json:"rounds"`
	// Resolved counts rounds that were re-solved and compared.
	Resolved int `json:"resolved"`
	// Skipped counts rounds whose anchor reports were compacted away and
	// could not be re-solved, plus snapshot estimates whose round-solved
	// record no surviving segment holds.
	Skipped int `json:"skipped"`
	// TornBytes counts trailing bytes past the last valid record — a
	// clean crash artifact, reported but not an error.
	TornBytes int64 `json:"tornBytes"`
	// Diffs are the disagreements; an empty slice is a clean journal.
	Diffs []Diff `json:"diffs"`
}

// Clean reports whether the verification found zero diffs.
func (vr *VerifyResult) Clean() bool { return len(vr.Diffs) == 0 }

// anchorKey identifies one stored report version: the identity the
// server's history keeps reports under, pinned to the capture round so a
// later site revisit never shadows the version an earlier solve used.
type anchorKey struct {
	objectID  string
	apID      string
	siteIndex int
	roundID   uint64
}

// roundKey identifies one solved round's estimate.
type roundKey struct {
	objectID string
	roundID  uint64
}

// Verify re-reads a journal directory without modifying it, re-solves
// every round-solved record whose anchor reports are still present, and
// diffs the results against the recorded estimates bit-exactly. A clean
// torn tail is tolerated (reported via TornBytes); a directory the walk
// refuses returns its error.
//
//nomloc:effect(globalread,io)
func Verify(dir string) (*VerifyResult, error) {
	vr := &VerifyResult{Diffs: []Diff{}}
	// The snapshot seeds the anchor index (and meta): after compaction it
	// is the only source for reports older than the surviving segments.
	index := make(map[anchorKey]*wire.CSIReport)
	// Snapshot estimates whose round-solved record no surviving segment
	// holds cannot be re-solved.
	unsolved := make(map[roundKey]bool)
	var loc *core.Localizer
	w, err := walkDir(dir, func(snap *State) func(Record) error {
		vr.Meta = snap.Meta
		for _, e := range snap.Estimates {
			unsolved[roundKey{e.ObjectID, e.RoundID}] = true
		}
		for _, oh := range snap.History {
			for _, rep := range oh.Reports {
				index[anchorKey{oh.ObjectID, rep.APID, rep.SiteIndex, rep.RoundID}] = rep
			}
		}
		return func(rec Record) error {
			vr.Records++
			switch rec.Kind {
			case KindMeta:
				return decodeJSON(rec.Payload, &vr.Meta, "meta")
			case KindSessionOpen, KindSessionClose:
				var ev SessionEvent
				return decodeJSON(rec.Payload, &ev, "session")
			case KindReport:
				objectID, rep, derr := decodeReportPayload(rec.Payload)
				if derr != nil {
					return derr
				}
				index[anchorKey{objectID, rep.APID, rep.SiteIndex, rep.RoundID}] = rep
			case KindRoundSolved:
				var rs RoundSolved
				if derr := decodeJSON(rec.Payload, &rs, "round_solved"); derr != nil {
					return derr
				}
				vr.Rounds++
				delete(unsolved, roundKey{rs.Estimate.ObjectID, rs.Estimate.RoundID})
				if loc == nil {
					var lerr error
					if loc, lerr = localizerFromMeta(vr.Meta); lerr != nil {
						return lerr
					}
				}
				verifyRound(vr, loc, index, rs)
			default:
				return fmt.Errorf("%w: unknown record kind %d at seq %d", ErrCorrupt, rec.Kind, rec.Seq)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	vr.Skipped += len(unsolved)
	if w.tail != nil {
		vr.TornBytes = w.tail.torn
	}
	if vr.Records > 0 && len(vr.Meta.AreaVertices) == 0 {
		return nil, ErrNoMeta
	}
	return vr, nil
}

// localizerFromMeta rebuilds the solve pipeline a journal's solves ran on.
func localizerFromMeta(m Meta) (*core.Localizer, error) {
	if len(m.AreaVertices) < 3 {
		return nil, ErrNoMeta
	}
	area, err := geom.NewPolygon(m.AreaVertices)
	if err != nil {
		return nil, fmt.Errorf("journal: meta area: %w", err)
	}
	loc, err := core.New(core.Config{Area: area})
	if err != nil {
		return nil, fmt.Errorf("journal: rebuild localizer: %w", err)
	}
	return loc, nil
}

// verifyRound re-solves one recorded round and appends any disagreements
// to vr.Diffs.
func verifyRound(vr *VerifyResult, loc *core.Localizer, index map[anchorKey]*wire.CSIReport, rs RoundSolved) {
	reports := make([]*wire.CSIReport, 0, len(rs.Anchors))
	for _, a := range rs.Anchors {
		rep, ok := index[anchorKey{rs.Estimate.ObjectID, a.APID, a.SiteIndex, a.RoundID}]
		if !ok {
			// The anchor's report bytes were compacted away; this round
			// predates the surviving tail and cannot be re-solved.
			vr.Skipped++
			return
		}
		reports = append(reports, rep)
	}
	vr.Resolved++
	diff := func(field, recorded, replayed string) {
		vr.Diffs = append(vr.Diffs, Diff{
			RoundID:  rs.Estimate.RoundID,
			ObjectID: rs.Estimate.ObjectID,
			Field:    field,
			Recorded: recorded,
			Replayed: replayed,
		})
	}
	est, err := SolveReports(loc, reports)
	if err != nil {
		diff("solveError", "success", err.Error())
		return
	}
	if math.Float64bits(est.Position.X) != math.Float64bits(rs.Estimate.Pos.X) {
		diff("pos.x", formatFloat(rs.Estimate.Pos.X), formatFloat(est.Position.X))
	}
	if math.Float64bits(est.Position.Y) != math.Float64bits(rs.Estimate.Pos.Y) {
		diff("pos.y", formatFloat(rs.Estimate.Pos.Y), formatFloat(est.Position.Y))
	}
	if math.Float64bits(est.RelaxCost) != math.Float64bits(rs.Estimate.RelaxCost) {
		diff("relaxCost", formatFloat(rs.Estimate.RelaxCost), formatFloat(est.RelaxCost))
	}
	if len(reports) != rs.Estimate.NumAnchors {
		diff("numAnchors", strconv.Itoa(rs.Estimate.NumAnchors), strconv.Itoa(len(reports)))
	}
}

// formatFloat renders a float for diff output with full round-trip
// precision.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ReadState performs a read-only recovery of dir — the same walk and
// replay Open runs, without truncating torn tails or opening a segment
// for appending. Replay tooling uses it to summarize a journal that a
// live server may still own.
//
//nomloc:effect(globalread,io)
func ReadState(dir string) (*State, RecoveryStats, error) {
	st, stats, _, err := replayDir(dir)
	return st, stats, err
}

// DirSize sums the journal directory's file sizes — replay tooling's
// summary metric.
func DirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			return 0, fmt.Errorf("journal: stat %s: %w", e.Name(), ierr)
		}
		total += info.Size()
	}
	return total, nil
}
