package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"time"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/deploy"
	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/parallel"
	"github.com/nomloc/nomloc/internal/wire"
)

// workload is one traffic mix. Each fixed rate is about a sixth of the
// mix's closed-loop capacity on a quiet 2-core VM (≈100 and ≈170
// rounds/s), because a shared VM was seen running up to four times
// slower; the open loop must stay below capacity even then, or its
// latencies measure a growing backlog instead of the server.
type workload struct {
	name     string
	scenario string
	journal  bool    // journal with fsync on the real disk
	objects  int     // logical objects sharing the one object connection
	packets  int     // packets per CSI report
	rate     float64 // fixed-rate phase, rounds per second over all objects
}

// workloads are listed in BENCHMARK.json order. burst stresses the codec
// and PDP extraction with the journal bypassed, office-default the
// journal (fsync per report under the server lock, snapshots) and the
// longest histories of the default deployment.
//
// A third mix, lab with 8 objects and 5-packet reports, spent its time
// waiting on fsync. Its capacity switched between two levels about a
// third apart, mid-run, as the shared disk's fsync latency moved, so runs
// of the same code disagreed by more than any bound could allow.
var workloads = []workload{
	{name: "burst", scenario: "lab", journal: false, objects: 2, packets: 100, rate: 15},
	{name: "office-default", scenario: "office", journal: true, objects: 4, packets: 25, rate: 30},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// roundsPerObject is how many rounds each object sends in d at the fixed
// rate.
func (w workload) roundsPerObject(d time.Duration) int {
	return max(1, int(math.Round(w.rate*d.Seconds()/float64(w.objects))))
}

func (w workload) describe() string {
	j := "no journal"
	if w.journal {
		j = "journal with fsync"
	}
	return fmt.Sprintf("%s, %s, %d objects, %d packets/report, %g rounds/s fixed rate",
		w.scenario, j, w.objects, w.packets, w.rate)
}

// burstsPerLink is how many simulator bursts are generated per (object,
// AP site); each round picks one and rotates it by its own phasor.
const burstsPerLink = 4

// maxNomadicSites is the server's default history bound, which the
// benchmark's mirror of the history must share.
const maxNomadicSites = 8

// captureEpoch stamps simulated capture time, as the AP agent does.
var captureEpoch = time.Date(2014, time.June, 30, 12, 0, 0, 0, time.UTC)

// apInfo is one AP of the venue: static APs have one site, the nomadic AP
// its home followed by its waypoints.
type apInfo struct {
	id      string
	nomadic bool
	sites   []geom.Vec
}

// inputs are everything the generator sends, derived from the workload
// and the seed alone.
type inputs struct {
	w       workload
	seed    int64
	area    geom.Polygon
	aps     []apInfo // sorted by id, the index every per-AP array uses
	objects []string
	pos     []geom.Vec
	bursts  [][][][]csi.Batch // [object][ap][site][burst]
	sites   int               // most sites of any AP: rounds that fill a history
}

// newInputs builds the venue, places the objects and simulates every
// burst. The seed drives placement and CSI noise.
func newInputs(w workload, seed int64) (*inputs, error) {
	scn, err := deploy.ByName(w.scenario)
	if err != nil {
		return nil, err
	}
	sim, err := scn.Simulator()
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, area: scn.Area}
	for _, ap := range scn.StaticAPs {
		in.aps = append(in.aps, apInfo{id: ap.ID, sites: []geom.Vec{ap.Pos}})
	}
	if scn.Nomadic.ID != "" {
		in.aps = append(in.aps, apInfo{id: scn.Nomadic.ID, nomadic: true, sites: scn.Nomadic.AllSites()})
	}
	sort.Slice(in.aps, func(i, j int) bool { return in.aps[i].id < in.aps[j].id })
	for _, ap := range in.aps {
		in.sites = max(in.sites, len(ap.sites))
	}

	place := parallel.Stream(seed, 0)
	lo, hi := scn.Area.BoundingBox()
	for o := 0; o < w.objects; o++ {
		in.objects = append(in.objects, fmt.Sprintf("obj-%d", o+1))
		for {
			p := geom.V(lo.X+place.Float64()*(hi.X-lo.X), lo.Y+place.Float64()*(hi.Y-lo.Y))
			if scn.Area.ContainsStrict(p, 0.5) {
				in.pos = append(in.pos, p)
				break
			}
		}
	}

	var link int64
	in.bursts = make([][][][]csi.Batch, w.objects)
	for o := range in.bursts {
		in.bursts[o] = make([][][]csi.Batch, len(in.aps))
		for a, ap := range in.aps {
			in.bursts[o][a] = make([][]csi.Batch, len(ap.sites))
			for s, site := range ap.sites {
				for b := 0; b < burstsPerLink; b++ {
					link++
					rng := parallel.Stream(seed, link)
					in.bursts[o][a][s] = append(in.bursts[o][a][s],
						sim.MeasureBatch(ap.id, s, in.pos[o], site, w.packets, captureEpoch, rng))
				}
			}
		}
	}
	return in, nil
}

// roundID numbers object obj's k-th round. IDs are unique across objects
// and increase with k, as the server's recency rule requires, and they do
// not depend on timing, so the estimate stream is reproducible.
func (in *inputs) roundID(obj, k int) uint64 { return uint64(k*len(in.objects) + obj + 1) }

// site is where AP ap captured object obj's k-th round. The nomadic AP
// cycles through its sites, so any in.sites consecutive rounds fill an
// object's history.
func (in *inputs) site(obj, k, ap int) int {
	if !in.aps[ap].nomadic {
		return 0
	}
	return (k + obj) % len(in.aps[ap].sites)
}

// report is AP ap's CSI report for object obj's k-th round: one of the
// link's bursts, multiplied by a unit phasor drawn for (object, round,
// AP). No two rounds carry byte-identical CSI, so a cache keyed on
// content cannot fake a gain.
func (in *inputs) report(obj, k, ap int) *wire.CSIReport {
	a := in.aps[ap]
	site := in.site(obj, k, ap)
	h := mix64(uint64(in.seed), uint64(obj), uint64(k), uint64(ap))
	src := in.bursts[obj][ap][site][h%burstsPerLink]
	rot := cmplx.Rect(1, 2*math.Pi*float64(h>>11)/(1<<53))
	id := in.roundID(obj, k)
	base := captureEpoch.Add(time.Duration(id) * time.Second)
	samples := make([]csi.Sample, len(src.Samples))
	for i, s := range src.Samples {
		v := make(csi.Vector, len(s.CSI))
		for j, c := range s.CSI {
			v[j] = c * rot
		}
		samples[i] = csi.Sample{
			APID:       a.id,
			Seq:        s.Seq,
			CapturedAt: base.Add(time.Duration(s.Seq) * time.Millisecond),
			RSSI:       s.RSSI,
			CSI:        v,
		}
	}
	return &wire.CSIReport{
		RoundID:   id,
		APID:      a.id,
		SiteIndex: site,
		Pos:       a.sites[site],
		Nomadic:   a.nomadic,
		Batch:     csi.Batch{APID: a.id, SiteIndex: site, Samples: samples},
	}
}

// mix64 hashes a tuple with the SplitMix64 finalizer.
func mix64(vals ...uint64) uint64 {
	var z uint64
	for _, v := range vals {
		z += v + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}
