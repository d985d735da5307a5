package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/wire"
)

// buildJournal writes a small journal whose round-solved record came from
// the real solver, so -verify is clean by construction. When tamper is
// set, a second round-solved record with a corrupted estimate follows.
func buildJournal(t *testing.T, tamper bool) string {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(journal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	meta := journal.Meta{
		ServerID:        "replay-test",
		AreaVertices:    geom.Rect(0, 0, 12, 8).Vertices(),
		MaxNomadicSites: 4,
	}
	if err := j.AppendMeta(meta); err != nil {
		t.Fatal(err)
	}
	batch := func(apID string, vec []complex128) csi.Batch {
		return csi.Batch{APID: apID, Samples: []csi.Sample{
			{APID: apID, Seq: 0, CSI: vec},
			{APID: apID, Seq: 1, CSI: vec},
		}}
	}
	reports := []*wire.CSIReport{
		{RoundID: 1, APID: "ap1", Pos: geom.V(1, 1), Batch: batch("ap1", []complex128{1, 2})},
		{RoundID: 1, APID: "ap2", Pos: geom.V(11, 7), Batch: batch("ap2", []complex128{2, 1})},
	}
	for _, rep := range reports {
		if err := j.AppendReport("obj1", rep); err != nil {
			t.Fatal(err)
		}
	}
	area, err := geom.NewPolygon(meta.AreaVertices)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := core.New(core.Config{Area: area})
	if err != nil {
		t.Fatal(err)
	}
	est, err := journal.SolveReports(loc, reports)
	if err != nil {
		t.Fatal(err)
	}
	rs := journal.RoundSolved{
		Estimate: wire.Estimate{RoundID: 1, ObjectID: "obj1", Pos: est.Position, RelaxCost: est.RelaxCost, NumAnchors: 2},
		Anchors:  []journal.AnchorRef{{APID: "ap1", RoundID: 1}, {APID: "ap2", RoundID: 1}},
	}
	if err := j.AppendRoundSolved(rs); err != nil {
		t.Fatal(err)
	}
	if tamper {
		bad := rs
		bad.Estimate.RoundID = 2
		bad.Estimate.Pos.X += 0.5
		if err := j.AppendRoundSolved(bad); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("missing -journal exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-journal is required") {
		t.Fatalf("stderr = %q", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-journal", filepath.Join(t.TempDir(), "absent")}, &out, &errOut); code != 2 {
		t.Fatalf("absent dir exited %d, want 2", code)
	}
}

func TestSummary(t *testing.T) {
	dir := buildJournal(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{"-journal", dir}, &out, &errOut); code != 0 {
		t.Fatalf("summary exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{`server="replay-test"`, "records=4", "estimates=1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary %q missing %q", out.String(), want)
		}
	}

	out.Reset()
	if code := run([]string{"-journal", dir, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("json summary exited %d: %s", code, errOut.String())
	}
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("summary json: %v", err)
	}
	if sum.ServerID != "replay-test" || sum.Records != 4 || sum.Reports != 2 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestVerifyCleanAndDiverged(t *testing.T) {
	clean := buildJournal(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{"-journal", clean, "-verify"}, &out, &errOut); code != 0 {
		t.Fatalf("clean verify exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "diffs=0") {
		t.Fatalf("verify output = %q", out.String())
	}

	tampered := buildJournal(t, true)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-journal", tampered, "-verify"}, &out, &errOut); code != 1 {
		t.Fatalf("tampered verify exited %d, want 1: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "pos.x") {
		t.Fatalf("diff output = %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-journal", tampered, "-verify", "-json"}, &out, &errOut); code != 1 {
		t.Fatalf("tampered json verify exited %d, want 1", code)
	}
	var vr journal.VerifyResult
	if err := json.Unmarshal(out.Bytes(), &vr); err != nil {
		t.Fatalf("verify json: %v", err)
	}
	if len(vr.Diffs) != 1 || vr.Diffs[0].Field != "pos.x" {
		t.Fatalf("verify json diffs = %+v", vr.Diffs)
	}
}

// TestVerifyCorruptJournal: interior corruption is exit 2, not a diff.
func TestVerifyCorruptJournal(t *testing.T) {
	dir := buildJournal(t, false)
	// Flip a byte in the first (and only) segment's interior, then add a
	// second segment so the corruption is no longer a clean tail.
	segments, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segName string
	for _, e := range segments {
		if strings.HasSuffix(e.Name(), ".seg") {
			segName = e.Name()
		}
	}
	if segName == "" {
		t.Fatal("no segment file")
	}
	j, err := journal.Open(journal.Options{Dir: dir, NoSync: true, SegmentMaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentMaxBytes 1 forces the next append into a fresh segment.
	if err := j.AppendSessionOpen(wire.RoleViewer, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-journal", dir, "-verify"}, &out, &errOut); code != 2 {
		t.Fatalf("corrupt verify exited %d, want 2: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "corrupt") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// TestFormatVersionJournal: a segment written by another format version
// is refused with exit 2 by both modes, never read as an empty journal.
func TestFormatVersionJournal(t *testing.T) {
	dir := buildJournal(t, false)
	path := filepath.Join(dir, "wal-0000000000000001.seg")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(buf[8:12], journal.FormatVersion+1)
	binary.BigEndian.PutUint32(buf[20:24], crc32.Checksum(buf[:20], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-journal", dir}, {"-journal", dir, "-verify"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v exited %d, want 2: %s", args, code, out.String())
		}
		if !strings.Contains(errOut.String(), "format version") {
			t.Fatalf("%v stderr = %q", args, errOut.String())
		}
	}
}
