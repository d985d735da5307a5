package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/wire"
)

// digestRounds is how many rounds per object of the first fixed-rate
// block the estimate digest covers. Only that block's round indices do not
// depend on timing: later blocks start wherever the capacity blocks left
// off. A fixed count keeps the digest independent of the run length, so
// one pin per workload holds for every -seconds whose first block reaches
// it (37 s or more for every workload).
const digestRounds = 12

// pinnedDigests are the fixed-rate estimate-stream digests for seed 1. A
// change that alters any estimate changes its workload's digest.
var pinnedDigests = map[string]string{
	"burst":          "8c398adad30da4968a12d3287b9aeb753f05b72d72b3e4084c2ce0d2af408443",
	"office-default": "e6c7528d3b864a5fedcb40ae62e048a272b0776cd04fc1cf046223e0cd7ada94",
}

// rederive re-solves the given rounds from the generator's own copy of
// the inputs: every report of every round up to each given one, in each
// object's round order, goes through journal.ApplyReport; the history is
// sorted canonically and solved with journal.SolveReports. Each estimate
// the server sent must match bit for bit.
func rederive(in *inputs, recs []*roundRec) (checked int, problems []string, err error) {
	loc, err := core.New(core.Config{Area: in.area})
	if err != nil {
		return 0, nil, err
	}
	perObj := make([][]*roundRec, len(in.objects))
	for _, r := range recs {
		perObj[r.obj] = append(perObj[r.obj], r)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for obj, rs := range perObj {
		sort.Slice(rs, func(i, j int) bool { return rs[i].k < rs[j].k })
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hist []*wire.CSIReport
			next := 0
			for _, r := range rs {
				for ; next <= r.k; next++ {
					for a := range in.aps {
						hist, _ = journal.ApplyReport(hist, in.report(obj, next, a), maxNomadicSites)
					}
				}
				reports := canonical(hist)
				est, serr := journal.SolveReports(loc, reports)
				var bad string
				switch {
				case !r.ok():
					bad = fmt.Sprintf("round %d failed: %s", r.id, r.failed)
				case serr != nil:
					bad = fmt.Sprintf("round %d: re-solve failed: %v", r.id, serr)
				case !sameEstimate(r.est, est, len(reports), r.id, in.objects[obj]):
					bad = fmt.Sprintf("round %d: server sent %+v, re-derived %+v with %d anchors", r.id, r.est, *est, len(reports))
				}
				mu.Lock()
				checked++
				if bad != "" {
					problems = append(problems, bad)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Strings(problems)
	return checked, problems, nil
}

func sameEstimate(got wire.Estimate, want *core.Estimate, anchors int, id uint64, object string) bool {
	return got.RoundID == id && got.ObjectID == object && got.NumAnchors == anchors &&
		math.Float64bits(got.Pos.X) == math.Float64bits(want.Position.X) &&
		math.Float64bits(got.Pos.Y) == math.Float64bits(want.Position.Y) &&
		math.Float64bits(got.RelaxCost) == math.Float64bits(want.RelaxCost)
}

// estimateDigest hashes the estimates of each object's first digestRounds
// rounds among recs in (object, round) order. full is false when some
// object has fewer rounds, and such a digest is not compared with a pin.
func estimateDigest(recs []*roundRec, objects int) (digest string, full bool) {
	perObj := make([][]*roundRec, objects)
	for _, r := range recs {
		perObj[r.obj] = append(perObj[r.obj], r)
	}
	h := sha256.New()
	full = true
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, rs := range perObj {
		sort.Slice(rs, func(i, j int) bool { return rs[i].k < rs[j].k })
		if len(rs) < digestRounds {
			full = false
		}
		for _, r := range rs[:min(len(rs), digestRounds)] {
			put(r.est.RoundID)
			h.Write([]byte(r.est.ObjectID))
			put(math.Float64bits(r.est.Pos.X))
			put(math.Float64bits(r.est.Pos.Y))
			put(math.Float64bits(r.est.RelaxCost))
			put(uint64(r.est.NumAnchors))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), full
}

// checkDigest compares a full seed-1 digest with its pin and describes a
// mismatch; "" means no problem.
func checkDigest(pin string, seed int64, digest string, full bool) string {
	if seed != 1 || !full || digest == pin {
		return ""
	}
	return fmt.Sprintf("estimate digest %s, pinned %s for seed 1", digest, pin)
}
