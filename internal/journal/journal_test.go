package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/telemetry"
	"github.com/nomloc/nomloc/internal/wire"
)

// testMeta is the meta record the tests write on fresh journals.
func testMeta() Meta {
	return Meta{
		ServerID:        "test-server",
		AreaVertices:    geom.Rect(0, 0, 12, 8).Vertices(),
		MaxNomadicSites: 4,
	}
}

// testBatch builds a minimal decodable CSI batch.
func testBatch(apID string) csi.Batch {
	vec := []complex128{complex(1, 0), complex(2, 0)}
	return csi.Batch{
		APID: apID,
		Samples: []csi.Sample{
			{APID: apID, Seq: 0, CSI: vec},
			{APID: apID, Seq: 1, CSI: vec},
		},
	}
}

// testReport builds a stored-report fixture.
func testReport(roundID uint64, apID string, site int, nomadic bool, pos geom.Vec) *wire.CSIReport {
	return &wire.CSIReport{
		RoundID:   roundID,
		APID:      apID,
		SiteIndex: site,
		Pos:       pos,
		Nomadic:   nomadic,
		Batch:     testBatch(apID),
	}
}

// appendRecord encodes rec onto dst as the journal writes it.
func appendRecord(dst []byte, rec Record) []byte {
	buf := append(beginRecord(dst, rec.Seq, rec.Kind), rec.Payload...)
	sealRecord(buf[len(dst):])
	return buf
}

// openTest opens a journal under dir with sync disabled (tests exercise
// the format, not the disk).
func openTest(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

// fillJournal writes the canonical fixture stream: meta, a session, two
// reports, and one solved round.
func fillJournal(t *testing.T, j *Journal) {
	t.Helper()
	if !j.Fresh() {
		t.Fatal("journal not fresh")
	}
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatalf("AppendMeta: %v", err)
	}
	if err := j.AppendSessionOpen(wire.RoleObject, "obj1"); err != nil {
		t.Fatalf("AppendSessionOpen: %v", err)
	}
	reps := []*wire.CSIReport{
		testReport(1, "ap1", 0, false, geom.Vec{X: 1, Y: 1}),
		testReport(1, "ap2", 2, true, geom.Vec{X: 9, Y: 6}),
	}
	for _, rep := range reps {
		if err := j.AppendReport("obj1", rep); err != nil {
			t.Fatalf("AppendReport: %v", err)
		}
	}
	rs := RoundSolved{
		Estimate: wire.Estimate{RoundID: 1, ObjectID: "obj1", Pos: geom.Vec{X: 5, Y: 4}, RelaxCost: 0.25, NumAnchors: 2},
		Anchors:  []AnchorRef{{APID: "ap1", SiteIndex: 0, RoundID: 1}, {APID: "ap2", SiteIndex: 2, RoundID: 1}},
	}
	if err := j.AppendRoundSolved(rs); err != nil {
		t.Fatalf("AppendRoundSolved: %v", err)
	}
}

// TestOpenFreshReopenRecovers: a journal round-trips its record stream —
// reopening rebuilds meta, history, estimates, and the finished window,
// and sequence numbering continues where it left off.
func TestOpenFreshReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir)
	fillJournal(t, j)
	last := j.LastSeq()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := openTest(t, dir)
	defer func() {
		if err := j2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if j2.Fresh() {
		t.Fatal("reopened journal claims fresh")
	}
	if got := j2.LastSeq(); got != last {
		t.Fatalf("LastSeq after reopen = %d, want %d", got, last)
	}
	st := j2.State()
	if st.Meta.ServerID != "test-server" || st.Meta.MaxNomadicSites != 4 {
		t.Fatalf("recovered meta = %+v", st.Meta)
	}
	if len(st.History) != 1 || st.History[0].ObjectID != "obj1" || len(st.History[0].Reports) != 2 {
		t.Fatalf("recovered history = %+v", st.History)
	}
	if len(st.Estimates) != 1 || st.Estimates[0].RoundID != 1 || st.Estimates[0].NumAnchors != 2 {
		t.Fatalf("recovered estimates = %+v", st.Estimates)
	}
	if len(st.Finished) != 1 || st.Finished[0] != 1 {
		t.Fatalf("recovered finished = %+v", st.Finished)
	}
	stats := j2.Stats()
	if stats.Records != int(last) {
		t.Fatalf("stats.Records = %d, want %d", stats.Records, last)
	}
	if stats.TruncatedBytes != 0 {
		t.Fatalf("clean journal truncated %d bytes", stats.TruncatedBytes)
	}

	// Appending after recovery keeps the sequence contiguous.
	if err := j2.AppendSessionClose(wire.RoleObject, "obj1"); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got := j2.LastSeq(); got != last+1 {
		t.Fatalf("LastSeq after append = %d, want %d", got, last+1)
	}
}

// TestApplyReportRetention: the shared retention helper implements the
// server's semantics — recency by round, identity replacement, and
// nomadic-site eviction.
func TestApplyReportRetention(t *testing.T) {
	var hist []*wire.CSIReport

	// Store, then replace with a newer round for the same identity.
	hist, stored := ApplyReport(hist, testReport(1, "ap1", 0, false, geom.Vec{}), 2)
	if !stored || len(hist) != 1 {
		t.Fatalf("first store: stored=%v len=%d", stored, len(hist))
	}
	hist, stored = ApplyReport(hist, testReport(3, "ap1", 0, false, geom.Vec{}), 2)
	if !stored || len(hist) != 1 || hist[0].RoundID != 3 {
		t.Fatalf("replacement: stored=%v hist=%+v", stored, hist)
	}

	// An older round for a stored identity is stale.
	hist, stored = ApplyReport(hist, testReport(2, "ap1", 0, false, geom.Vec{}), 2)
	if stored || hist[0].RoundID != 3 {
		t.Fatalf("stale report stored: %+v", hist)
	}

	// Nomadic sites accumulate up to the budget, then evict oldest.
	hist, _ = ApplyReport(hist, testReport(4, "nom", 0, true, geom.Vec{}), 2)
	hist, _ = ApplyReport(hist, testReport(5, "nom", 1, true, geom.Vec{}), 2)
	hist, stored = ApplyReport(hist, testReport(6, "nom", 2, true, geom.Vec{}), 2)
	if !stored {
		t.Fatal("third site not stored")
	}
	sites := 0
	for _, rep := range hist {
		if rep.APID == "nom" {
			sites++
			if rep.SiteIndex == 0 {
				t.Fatalf("oldest site not evicted: %+v", hist)
			}
		}
	}
	if sites != 2 {
		t.Fatalf("nomadic sites = %d, want 2", sites)
	}
}

// TestTornTailTruncated: garbage appended past the last valid record — the
// torn-write crash shape — is truncated during recovery, never an error,
// and the journal stays appendable.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir)
	fillJournal(t, j)
	last := j.LastSeq()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a torn write: half an appended record's bytes.
	seg := segmentPath(dir, 1)
	torn := appendRecord(nil, Record{Seq: last + 1, Kind: KindSessionClose, Payload: []byte(`{}`)})
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openTest(t, dir)
	stats := j2.Stats()
	if stats.TruncatedBytes != int64(len(torn)/2) {
		t.Fatalf("TruncatedBytes = %d, want %d", stats.TruncatedBytes, len(torn)/2)
	}
	if got := j2.LastSeq(); got != last {
		t.Fatalf("LastSeq = %d, want %d", got, last)
	}
	// The tail is clean again: the next append lands at last+1 and a third
	// recovery sees nothing torn.
	if err := j2.AppendSessionClose(wire.RoleObject, "obj1"); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3 := openTest(t, dir)
	if got := j3.Stats().TruncatedBytes; got != 0 {
		t.Fatalf("second recovery truncated %d bytes", got)
	}
	if err := j3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestInteriorCorruptionRejected: a bit flip before the journal tail is
// NOT a torn write — recovery must refuse with ErrCorrupt rather than
// silently dropping committed records.
func TestInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a roll so corruption lands in a non-final file.
	j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	fillJournal(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segments, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) < 2 {
		t.Fatalf("expected a segment roll, got %d segments", len(segments))
	}

	// Flip one payload byte in the first segment.
	path := filepath.Join(dir, segments[0].name)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir, NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on interior corruption = %v, want ErrCorrupt", err)
	}
}

// TestSegmentRollSnapshotCompact: segments roll at the size bound,
// snapshots capture the state, and Compact removes covered files while
// recovery still rebuilds the same state afterwards.
func TestSegmentRollSnapshotCompact(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 12; round++ {
		if err := j.AppendReport("obj1", testReport(round, "ap1", 0, false, geom.Vec{X: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segments, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segments))
	}

	// Recover, snapshot the full state, and compact.
	j2 := openTest(t, dir)
	want := j2.State()
	if err := j2.Snapshot(want); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := j2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	after, snapshots, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segments) {
		t.Fatalf("compact kept %d of %d segments", len(after), len(segments))
	}
	if len(snapshots) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snapshots))
	}

	// Recovery from snapshot + surviving tail matches the full replay.
	j3 := openTest(t, dir)
	defer func() {
		if err := j3.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if j3.Stats().SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	got := j3.State()
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("state after compact diverged:\n want %s\n got  %s", wantJSON, gotJSON)
	}
}

// TestJournalByteDeterminism: two identical append sequences produce
// byte-identical journal directories — the property CI asserts under
// -race.
func TestJournalByteDeterminism(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		fillJournal(t, j)
		st, _, err := ReadState(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Snapshot(st); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries0, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	entries1, err := os.ReadDir(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries0) != len(entries1) {
		t.Fatalf("file counts differ: %d vs %d", len(entries0), len(entries1))
	}
	for i := range entries0 {
		if entries0[i].Name() != entries1[i].Name() {
			t.Fatalf("file names differ: %s vs %s", entries0[i].Name(), entries1[i].Name())
		}
		b0, err := os.ReadFile(filepath.Join(dirs[0], entries0[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b1, err := os.ReadFile(filepath.Join(dirs[1], entries1[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b0, b1) {
			t.Fatalf("file %s differs between runs", entries0[i].Name())
		}
	}
}

// TestJournalGolden pins the SHA-256 of every file a fixed append
// sequence writes: fillJournal, a report whose record outgrows the
// journal's kept record buffer (which must not stay pinned), a session
// close through AppendRaw, and a snapshot. Two runs of one build
// agreeing (TestJournalByteDeterminism) cannot show a change to the
// bytes both runs share; these digests pin the format across builds,
// so they change only with FormatVersion.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	fillJournal(t, j)
	big := testReport(2, "ap3", 0, false, geom.Vec{X: 11, Y: 1})
	big.Batch.Samples = nil
	for i := 0; i < 300; i++ {
		vec := make([]complex128, csi.DefaultNumSubcarriers)
		for k := range vec {
			vec[k] = complex(float64(i), -float64(k))
		}
		big.Batch.Samples = append(big.Batch.Samples, csi.Sample{APID: "ap3", Seq: uint64(i), RSSI: -40, CSI: vec})
	}
	if err := j.AppendReport("obj1", big); err != nil {
		t.Fatal(err)
	}
	if cap(j.buf) > maxKeptRecordBytes {
		t.Errorf("the journal kept a %d-byte record buffer, bound %d", cap(j.buf), maxKeptRecordBytes)
	}
	if err := j.AppendRaw(Record{Seq: j.LastSeq() + 1, Kind: KindSessionClose, Payload: []byte(`{"role":"object","id":"obj1"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(j.stateForSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"wal-0000000000000001.seg":   "4937d1d1599ce878534282ea9d8b99e65c4cfcca12608ef65ebdd576525836ef",
		"wal-0000000000000004.seg":   "56362994dc405fbf91ae23bd03a8fce82ac47fce06fccde3b0c0d5409d51b36b",
		"wal-0000000000000006.seg":   "ec4b572eb75bc303f8a1f84086fb091307d941f862cb2182f93b508ab4f06bb8",
		"wal-0000000000000007.seg":   "3f2fed352100533327ae3d33a0564d8fb303b709afecc801626143b429603b1e",
		"snap-0000000000000007.snap": "23cf76533d8a99baf793eb2c085586ab4f16750294ce806ec038ecb44835805e",
	}
	for name, data := range files {
		got := fmt.Sprintf("%x", sha256.Sum256(data))
		if want[name] != got {
			t.Errorf("%s: sha256 %s, want %q", name, got, want[name])
		}
	}
	for name := range want {
		if _, ok := files[name]; !ok {
			t.Errorf("%s: not written", name)
		}
	}
}

// TestCrashHookBreaksJournal: a firing crash hook fails the append, marks
// the journal broken (every later operation refuses), and recovery of the
// directory converges back to the pre-crash state.
func TestCrashHookBreaksJournal(t *testing.T) {
	points := []string{PointAppendBefore, PointAppendTorn, PointAppendAfter}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("boom")
			armed := false
			j, err := Open(Options{Dir: dir, NoSync: true, CrashHook: func(p string) error {
				if armed && p == point {
					return boom
				}
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			fillJournal(t, j)
			last := j.LastSeq()

			armed = true
			err = j.AppendSessionClose(wire.RoleObject, "obj1")
			if !errors.Is(err, boom) {
				t.Fatalf("append under crash = %v, want boom", err)
			}
			if err := j.AppendSessionOpen(wire.RoleObject, "obj2"); !errors.Is(err, ErrBroken) {
				t.Fatalf("append on broken journal = %v, want ErrBroken", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			j2 := openTest(t, dir)
			defer func() {
				if err := j2.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			// append:after committed the record before the "kill", so
			// recovery sees one more; the other points see none of it.
			wantLast := last
			if point == PointAppendAfter {
				wantLast = last + 1
			}
			if got := j2.LastSeq(); got != wantLast {
				t.Fatalf("recovered LastSeq = %d, want %d", got, wantLast)
			}
			if point == PointAppendTorn && j2.Stats().TruncatedBytes == 0 {
				t.Fatal("torn crash left no truncated bytes")
			}
		})
	}
}

// writeSolvedRounds writes a journal under dir with the given segment
// size bound whose rounds 1..n were each solved by the real solver from
// two fresh static reports, and returns the last round-solved record.
func writeSolvedRounds(t *testing.T, dir string, segmentMaxBytes int64, n uint64) RoundSolved {
	t.Helper()
	j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: segmentMaxBytes})
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta()
	if err := j.AppendMeta(meta); err != nil {
		t.Fatal(err)
	}
	loc, err := localizerFromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	var rs RoundSolved
	for round := uint64(1); round <= n; round++ {
		reports := []*wire.CSIReport{
			testReport(round, "ap1", 0, false, geom.Vec{X: 1, Y: 1}),
			testReport(round, "ap2", 0, false, geom.Vec{X: 11, Y: 7}),
		}
		for _, rep := range reports {
			if err := j.AppendReport("obj1", rep); err != nil {
				t.Fatal(err)
			}
		}
		est, err := SolveReports(loc, reports)
		if err != nil {
			t.Fatalf("SolveReports: %v", err)
		}
		rs = RoundSolved{
			Estimate: wire.Estimate{RoundID: round, ObjectID: "obj1", Pos: est.Position, RelaxCost: est.RelaxCost, NumAnchors: 2},
			Anchors:  []AnchorRef{{APID: "ap1", SiteIndex: 0, RoundID: round}, {APID: "ap2", SiteIndex: 0, RoundID: round}},
		}
		if err := j.AppendRoundSolved(rs); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestVerifyCleanJournal: a journal whose round-solved records were
// produced by the real solver verifies with zero diffs — also after a
// snapshot and compaction, where a round counts as skipped only when no
// surviving segment holds its record — and corrupting a recorded estimate
// yields exactly the diffs for the tampered fields.
func TestVerifyCleanJournal(t *testing.T) {
	cases := []struct {
		name                      string
		segmentMaxBytes           int64 // 1 puts every record in a segment of its own
		snapshot                  bool  // snapshot the whole journal, then compact
		rounds, resolved, skipped int
	}{
		{name: "segments only", rounds: 3, resolved: 3},
		{name: "compacted, the active segment holds every round", snapshot: true, rounds: 3, resolved: 3},
		{name: "compacted down to the last round", segmentMaxBytes: 1, snapshot: true, rounds: 1, resolved: 1, skipped: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSolvedRounds(t, dir, tc.segmentMaxBytes, 3)
			if tc.snapshot {
				snapshotDir(t, dir, true)
			}
			vr, err := Verify(dir)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !vr.Clean() {
				t.Fatalf("clean journal has diffs: %+v", vr.Diffs)
			}
			if vr.Rounds != tc.rounds || vr.Resolved != tc.resolved || vr.Skipped != tc.skipped {
				t.Fatalf("verify counters = rounds %d resolved %d skipped %d, want %d %d %d",
					vr.Rounds, vr.Resolved, vr.Skipped, tc.rounds, tc.resolved, tc.skipped)
			}
		})
	}

	// Tamper with the recorded estimate: re-append a wrong solve.
	dir := t.TempDir()
	rs := writeSolvedRounds(t, dir, 0, 3)
	j := openTest(t, dir)
	bad := rs
	bad.Estimate.RoundID = 4
	bad.Estimate.Pos.X += 1
	if err := j.AppendRoundSolved(bad); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	vr, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify tampered: %v", err)
	}
	if len(vr.Diffs) != 1 || vr.Diffs[0].Field != "pos.x" || vr.Diffs[0].RoundID != 4 {
		t.Fatalf("tampered diffs = %+v", vr.Diffs)
	}
}

// TestReadStateMatchesOpen: the read-only recovery used by replay tooling
// rebuilds the same state as a full Open without modifying the directory.
func TestReadStateMatchesOpen(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir)
	fillJournal(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, stats, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	after, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("ReadState modified the journal directory")
	}
	j2 := openTest(t, dir)
	defer func() {
		if err := j2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	wantJSON, err := json.Marshal(j2.State())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("ReadState diverged from Open:\n want %s\n got  %s", wantJSON, gotJSON)
	}
	if stats.LastSeq != j2.LastSeq() {
		t.Fatalf("stats.LastSeq = %d, want %d", stats.LastSeq, j2.LastSeq())
	}
}

// TestTelemetryInstruments: journal operations move the nomloc_journal_*
// instruments; a nil registry stays a no-op.
func TestTelemetryInstruments(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New(nil)
	j, err := Open(Options{Dir: dir, Telemetry: reg, Clock: reg.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	fillJournal(t, j)
	if err := j.Snapshot(j.stateForSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wantPositive := []string{
		"nomloc_journal_appends_total",
		"nomloc_journal_append_bytes_total",
		"nomloc_journal_fsyncs_total",
		"nomloc_journal_snapshots_total",
		"nomloc_journal_segments",
		"nomloc_journal_recoveries_total",
	}
	for _, name := range wantPositive {
		total := 0.0
		for _, m := range snap.Metrics {
			if m.Name == name {
				total += m.Value
			}
		}
		if total <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, total)
		}
	}
}

// stateForSnapshot rebuilds the current on-disk state so the snapshot
// covers every appended record.
func (j *Journal) stateForSnapshot(t *testing.T) *State {
	t.Helper()
	st, _, err := ReadState(j.opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// dirBytes reads every file in dir into a name → contents map.
func dirBytes(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = buf
	}
	return out, nil
}

// TestRecordRoundTrip: the record codec survives arbitrary payloads and
// rejects every single-bit corruption of the encoding.
func TestRecordRoundTrip(t *testing.T) {
	rec := Record{Seq: 42, Kind: KindReport, Payload: []byte("payload bytes")}
	buf := appendRecord(nil, rec)
	got, n, ok := parseRecord(buf)
	if !ok || n != len(buf) {
		t.Fatalf("parseRecord ok=%v n=%d", ok, n)
	}
	if got.Seq != rec.Seq || got.Kind != rec.Kind || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 1 << bit
			if mutRec, _, ok := parseRecord(mut); ok {
				// A corrupted length can only be accepted if the CRC still
				// matches, which a single bit flip cannot arrange.
				t.Fatalf("bit flip at byte %d bit %d accepted: %+v", i, bit, mutRec)
			}
		}
	}
}

// TestReportPayloadRoundTrip: the object-ID + wire-frame payload codec is
// lossless.
func TestReportPayloadRoundTrip(t *testing.T) {
	rep := testReport(7, "ap9", 3, true, geom.Vec{X: 2.5, Y: 3.5})
	payload, err := appendReportPayload(nil, "obj-x", rep)
	if err != nil {
		t.Fatal(err)
	}
	objectID, got, err := decodeReportPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if objectID != "obj-x" {
		t.Fatalf("objectID = %q", objectID)
	}
	if got.RoundID != 7 || got.APID != "ap9" || got.SiteIndex != 3 || !got.Nomadic {
		t.Fatalf("report = %+v", got)
	}
	if fmt.Sprint(got.Pos) != fmt.Sprint(rep.Pos) {
		t.Fatalf("pos = %v, want %v", got.Pos, rep.Pos)
	}
}
