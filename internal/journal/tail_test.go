package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/nomloc/nomloc/internal/wire"
)

// drainTail reads every available record from t, failing on iteration
// errors.
func drainTail(t *testing.T, tail *Tail) []Record {
	t.Helper()
	var out []Record
	for {
		rec, done, err := tail.Next()
		if err != nil {
			t.Fatalf("tail next: %v", err)
		}
		if done {
			return out
		}
		out = append(out, rec)
	}
}

// TestTailReadsExistingRecords pins the basic contract: a Tail opened at
// zero replays every appended record in order, then reports caught-up
// without blocking, and resumes when more records arrive.
func TestTailReadsExistingRecords(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir)
	defer j.Close()
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.AppendSessionOpen(wire.RoleAP, "ap"); err != nil {
			t.Fatal(err)
		}
	}

	tail, err := j.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	recs := drainTail(t, tail)
	if len(recs) != 6 {
		t.Fatalf("tail returned %d records, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if tail.Seq() != 6 {
		t.Fatalf("tail cursor %d, want 6", tail.Seq())
	}

	// Caught up: another Next is done, not an error.
	if _, done, nerr := tail.Next(); nerr != nil || !done {
		t.Fatalf("caught-up Next: done=%v err=%v", done, nerr)
	}

	// New appends become visible to the same Tail.
	if err := j.AppendSessionClose(wire.RoleAP, "ap"); err != nil {
		t.Fatal(err)
	}
	more := drainTail(t, tail)
	if len(more) != 1 || more[0].Seq != 7 || more[0].Kind != KindSessionClose {
		t.Fatalf("follow-up read: %+v", more)
	}
}

// TestTailBoundsAndResume pins cursor semantics: afterSeq skips the
// prefix, a cursor at the tail sees nothing, and a cursor below the
// oldest surviving segment is a typed ErrTailGap.
func TestTailBoundsAndResume(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir)
	defer j.Close()
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.AppendReport("obj", testReport(uint64(i+1), "ap1", 0, false, testMeta().AreaVertices[0])); err != nil {
			t.Fatal(err)
		}
	}

	tail, err := j.Tail(3)
	if err != nil {
		t.Fatal(err)
	}
	recs := drainTail(t, tail)
	tail.Close()
	if len(recs) != 2 || recs[0].Seq != 4 || recs[1].Seq != 5 {
		t.Fatalf("afterSeq=3 returned %+v", recs)
	}

	tail, err = j.Tail(j.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if recs := drainTail(t, tail); len(recs) != 0 {
		t.Fatalf("cursor at tail returned %d records", len(recs))
	}
	tail.Close()

	// Compact the covered prefix away, then ask for it.
	st := &State{Seq: j.LastSeq()}
	if err := j.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	// Roll into a fresh segment so the old one is compactable.
	for i := 0; i < 2; i++ {
		if err := j.AppendSessionOpen(wire.RoleAP, "ap"); err != nil {
			t.Fatal(err)
		}
	}
	forceRoll(t, j)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	segments, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segments[0].seq <= 1 {
		t.Skip("compaction kept the first segment; gap not constructible")
	}
	tail, err = j.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, _, err := tail.Next(); !errors.Is(err, ErrTailGap) {
		t.Fatalf("compacted prefix read: %v, want ErrTailGap", err)
	}
}

// forceRoll appends large records until the journal rolls into a new
// segment.
func forceRoll(t *testing.T, j *Journal) {
	t.Helper()
	segments, _, err := listDir(j.opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	before := len(segments)
	payload := make([]byte, 1<<18)
	for i := 0; i < 64; i++ {
		if err := j.append(KindSessionOpen, rawPayload(payload)); err != nil {
			t.Fatal(err)
		}
		segments, _, err = listDir(j.opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segments) > before {
			return
		}
	}
	t.Fatal("journal never rolled")
}

// TestTailFollowsAcrossSegmentRoll pins that a Tail crosses segment
// boundaries transparently, including boundaries created while the Tail
// is already caught up.
func TestTailFollowsAcrossSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}

	tail, terr := j.Tail(0)
	if terr != nil {
		t.Fatal(terr)
	}
	defer tail.Close()
	var got []Record
	payload := make([]byte, 512)
	for i := 0; i < 40; i++ {
		if err := j.append(KindSessionOpen, rawPayload(payload)); err != nil {
			t.Fatal(err)
		}
		got = append(got, drainTail(t, tail)...)
	}
	// +1 for the meta record.
	if len(got) != 41 {
		t.Fatalf("tail returned %d records, want 41", len(got))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	segments, _, lerr := listDir(dir)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(segments) < 2 {
		t.Fatalf("test never rolled segments (%d)", len(segments))
	}
}

// TestTailConcurrentAppend hammers a Tail from one goroutine while the
// journal appends from another: every record must arrive exactly once,
// in order, with no read ever surfacing past the fsync floor.
func TestTailConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}

	const total = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload := make([]byte, 128)
		for i := 0; i < total; i++ {
			if aerr := j.append(KindSessionOpen, rawPayload(payload)); aerr != nil {
				t.Errorf("append %d: %v", i, aerr)
				return
			}
		}
	}()

	tail, terr := j.Tail(0)
	if terr != nil {
		t.Fatal(terr)
	}
	defer tail.Close()
	want := uint64(1)
	for want <= total+1 {
		rec, done, nerr := tail.Next()
		if nerr != nil {
			t.Fatalf("tail next at seq %d: %v", want, nerr)
		}
		if done {
			// Caught up with the writer; the limit guarantees nothing
			// beyond the fsync floor was surfaced.
			if floor := j.LastSeq(); tail.Seq() > floor {
				t.Fatalf("tail cursor %d beyond fsync floor %d", tail.Seq(), floor)
			}
			continue
		}
		if rec.Seq != want {
			t.Fatalf("tail read seq %d, want %d", rec.Seq, want)
		}
		want++
	}
	wg.Wait()
}

// TestTailStopsAtFsyncPoint is the regression test for the durability
// boundary: bytes written into the live segment but not yet committed by
// a successful fsync (here: a torn half-record from a crash hook) must
// never surface from a Tail, even though they are present in the file.
func TestTailStopsAtFsyncPoint(t *testing.T) {
	dir := t.TempDir()
	crash := errors.New("simulated crash")
	armed := false
	j, err := Open(Options{
		Dir:    dir,
		NoSync: true,
		CrashHook: func(point string) error {
			if armed && point == PointAppendTorn {
				return crash
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSessionOpen(wire.RoleAP, "ap"); err != nil {
		t.Fatal(err)
	}
	durable := j.LastSeq()

	// A torn append: half the record's bytes land in the live segment,
	// the fsync never happens, and the journal marks itself broken.
	armed = true
	if err := j.AppendSessionOpen(wire.RoleAP, "ap"); !errors.Is(err, crash) {
		t.Fatalf("armed append: %v", err)
	}
	if !j.Broken() {
		t.Fatal("journal not broken after torn append")
	}

	tail, terr := j.Tail(0)
	if terr != nil {
		t.Fatal(terr)
	}
	defer tail.Close()
	recs := drainTail(t, tail)
	if uint64(len(recs)) != durable {
		t.Fatalf("tail surfaced %d records, want %d (fsync floor)", len(recs), durable)
	}
	if tail.Seq() != durable {
		t.Fatalf("tail cursor %d beyond fsync floor %d", tail.Seq(), durable)
	}
}

// TestTailDirTornTail pins TailDir's post-mortem semantics: reading a
// dead journal's directory stops cleanly at the torn tail — the same
// boundary recovery truncates at — instead of erroring or surfacing
// garbage.
func TestTailDirTornTail(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir)
	if err := j.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendSessionOpen(wire.RoleAP, "ap"); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail by hand: append garbage to the last segment.
	segments, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, segments[len(segments)-1].name)
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x20, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tail, terr := TailDir(dir, 0)
	if terr != nil {
		t.Fatal(terr)
	}
	defer tail.Close()
	recs := drainTail(t, tail)
	if len(recs) != 4 {
		t.Fatalf("post-mortem drain returned %d records, want 4", len(recs))
	}
	if recs[len(recs)-1].Seq != 4 {
		t.Fatalf("last drained seq %d, want 4", recs[len(recs)-1].Seq)
	}
}

// TestAppendRawContiguity pins AppendRaw's contract: primary sequence
// numbers are preserved, a gap or duplicate is a typed ErrSeqGap, and a
// journal recovered from raw appends matches one built by the owner.
func TestAppendRawContiguity(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := openTest(t, srcDir)
	if err := src.AppendMeta(testMeta()); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendReport("obj", testReport(1, "ap1", 0, false, testMeta().AreaVertices[0])); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	tail, err := TailDir(srcDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	dst := openTest(t, dstDir)
	defer dst.Close()
	var recs []Record
	for {
		rec, done, nerr := tail.Next()
		if nerr != nil {
			t.Fatal(nerr)
		}
		if done {
			break
		}
		recs = append(recs, rec)
		if aerr := dst.AppendRaw(rec); aerr != nil {
			t.Fatalf("raw append seq %d: %v", rec.Seq, aerr)
		}
	}
	if dst.LastSeq() != src.LastSeq() {
		t.Fatalf("replica tail seq %d, source %d", dst.LastSeq(), src.LastSeq())
	}

	// A duplicate and a gap both fail typed.
	if err := dst.AppendRaw(recs[0]); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("duplicate raw append: %v", err)
	}
	gap := recs[len(recs)-1]
	gap.Seq += 2
	if err := dst.AppendRaw(gap); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gapped raw append: %v", err)
	}

	// The replicated directory recovers to the same state bytes.
	srcState, _, err := ReadState(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	dstState, _, err := ReadState(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(srcState)
	b, _ := json.Marshal(dstState)
	if !bytes.Equal(a, b) {
		t.Fatalf("replicated state diverged:\n%s\n%s", a, b)
	}
}
