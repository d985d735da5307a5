package journal

import (
	"errors"
	"fmt"
	"path/filepath"
)

// walk is what a journal directory commits to. Open, ReadState, Verify
// and TailDir all read a directory through walkDir, so they share one set
// of rules and cannot disagree on a damaged directory.
type walk struct {
	snap     *State       // newest valid snapshot; an empty State without one
	lastSeq  uint64       // last committed seq (snap.Seq when no record follows it)
	segments int          // segment files found
	tail     *segmentScan // the final segment, nil without segments
}

// walkDir reads dir without modifying it:
//
//   - The newest snapshot that passes its checksum wins; a corrupt one
//     falls back to the next older one.
//   - Segments are scanned in order. Each must start after the previous
//     segment's last record and no later than the next seq the snapshot and
//     the records so far leave uncommitted, so the records past the
//     snapshot run without gaps to the durable end.
//   - Only the final segment may end torn; invalid bytes in any other are
//     ErrCorrupt.
//   - A segment or snapshot whose magic and checksum are valid but whose
//     version differs is ErrFormatVersion.
//
// When start is non-nil, walkDir calls it once with the snapshot, then
// calls the visit function it returns for every surviving record in seq
// order, records the snapshot covers included. A visit error ends the walk.
func walkDir(dir string, start func(snap *State) (visit func(Record) error)) (*walk, error) {
	segments, snapshots, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	w := &walk{snap: &State{}, segments: len(segments)}
	for i := len(snapshots) - 1; i >= 0; i-- {
		st, serr := loadSnapshot(filepath.Join(dir, snapshots[i].name))
		if errors.Is(serr, ErrCorrupt) {
			continue
		}
		if serr != nil {
			return nil, serr
		}
		w.snap = st
		break
	}
	w.lastSeq = w.snap.Seq
	visit := func(Record) error { return nil }
	if start != nil {
		visit = start(w.snap)
	}

	var prev uint64 // seq of the last record walked
	for i, entry := range segments {
		if entry.seq <= prev || entry.seq > w.lastSeq+1 {
			return nil, fmt.Errorf("%w: segment %s starts at seq %d, want %d",
				ErrCorrupt, entry.name, entry.seq, w.lastSeq+1)
		}
		sc, serr := scanSegment(dir, entry)
		if serr != nil {
			return nil, serr
		}
		if sc.torn > 0 && i < len(segments)-1 {
			return nil, fmt.Errorf("%w: segment %s has %d invalid bytes before the journal tail",
				ErrCorrupt, entry.name, sc.torn)
		}
		for _, rec := range sc.records {
			if verr := visit(rec); verr != nil {
				return nil, verr
			}
			prev = rec.Seq
		}
		w.lastSeq = max(w.lastSeq, prev)
		w.tail = sc
	}
	return w, nil
}

// replayDir walks dir and applies every committed record past the
// snapshot onto it: the state and statistics Open recovers and ReadState
// reports.
func replayDir(dir string) (*State, RecoveryStats, *walk, error) {
	var stats RecoveryStats
	w, err := walkDir(dir, func(st *State) func(Record) error {
		stats.SnapshotSeq = st.Seq
		return func(rec Record) error {
			if rec.Seq <= st.Seq {
				return nil // covered by the snapshot
			}
			stats.Records++
			return st.Apply(rec)
		}
	})
	if err != nil {
		return nil, RecoveryStats{}, nil, err
	}
	stats.LastSeq = w.lastSeq
	stats.Segments = w.segments
	if w.tail != nil {
		stats.TruncatedBytes = w.tail.torn
	}
	return w.snap, stats, w, nil
}
