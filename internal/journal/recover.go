package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"github.com/nomloc/nomloc/internal/wire"
)

// MaxFinishedRounds bounds the finished-round memory — the window in
// which the live server absorbs duplicate and late reports idempotently,
// and which replay rebuilds — so a recovered server remembers exactly the
// rounds the live one did. The oldest entries are forgotten first.
const MaxFinishedRounds = 1024

// State is the durable server state a journal reconstructs: everything
// the localization pipeline accumulates across rounds. All collections
// are in canonical order (objects sorted by ID, reports in store order,
// finished rounds in eviction order) so serializing a State is
// byte-stable by construction.
type State struct {
	// Meta is the journal's meta record (zero until one is applied).
	Meta Meta `json:"meta"`
	// Seq is the sequence number of the last applied record.
	Seq uint64 `json:"seq"`
	// History is the per-object accumulated report history, sorted by
	// object ID.
	History []ObjectHistory `json:"history"`
	// Estimates are the broadcast estimates in solve order.
	Estimates []wire.Estimate `json:"estimates"`
	// Finished are the finalized round IDs still inside the idempotency
	// window, in eviction order.
	Finished []uint64 `json:"finished"`
}

// ObjectHistory is one object's accumulated reports in store order.
type ObjectHistory struct {
	// ObjectID names the localized object.
	ObjectID string `json:"objectId"`
	// Reports is the bounded report history, oldest first.
	Reports []*wire.CSIReport `json:"reports"`
}

// historyFor returns the index of objectID's history, inserting a new
// empty entry in sorted position when absent.
func (st *State) historyFor(objectID string) int {
	lo, hi := 0, len(st.History)
	for lo < hi {
		mid := (lo + hi) / 2
		if st.History[mid].ObjectID < objectID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st.History) && st.History[lo].ObjectID == objectID {
		return lo
	}
	st.History = append(st.History, ObjectHistory{})
	copy(st.History[lo+1:], st.History[lo:])
	st.History[lo] = ObjectHistory{ObjectID: objectID}
	return lo
}

// ApplyReport absorbs one report into a history slice under the server's
// retention semantics — most recent report per static AP and per
// (nomadic AP, site), recency judged by round ID, at most maxNomadicSites
// sites per nomadic AP — and reports whether it was stored. A report
// older than the stored entry for its identity is stale and leaves hist
// untouched. The server and the journal replayer share this single
// implementation so recovery can never drift from live behavior.
//
//nomloc:effect(pure)
func ApplyReport(hist []*wire.CSIReport, rep *wire.CSIReport, maxNomadicSites int) ([]*wire.CSIReport, bool) {
	if maxNomadicSites <= 0 {
		maxNomadicSites = 8
	}
	for _, old := range hist {
		same := old.APID == rep.APID && (!rep.Nomadic || old.SiteIndex == rep.SiteIndex)
		if same && old.RoundID > rep.RoundID {
			return hist, false
		}
	}
	// Drop a previous report with the same identity (static: APID;
	// nomadic: APID+site).
	kept := hist[:0]
	perAP := 0
	for _, old := range hist {
		same := old.APID == rep.APID && (!rep.Nomadic || old.SiteIndex == rep.SiteIndex)
		if same {
			continue
		}
		kept = append(kept, old)
		if old.APID == rep.APID {
			perAP++
		}
	}
	// Evict the oldest site of this nomadic AP when over budget.
	if rep.Nomadic && perAP >= maxNomadicSites {
		for i, old := range kept {
			if old.APID == rep.APID {
				kept = append(kept[:i], kept[i+1:]...)
				break
			}
		}
	}
	return append(kept, rep), true
}

// Apply replays one record into the state. Session events advance Seq but
// carry no state; they exist for audit and replay tooling. Recovery, the
// replayer, and the standby's replication apply loop all funnel through
// this one method, so a replicated state can never drift from a recovered
// one.
func (st *State) Apply(rec Record) error {
	switch rec.Kind {
	case KindMeta:
		if err := decodeJSON(rec.Payload, &st.Meta, "meta"); err != nil {
			return err
		}
	case KindSessionOpen, KindSessionClose:
		var ev SessionEvent
		if err := decodeJSON(rec.Payload, &ev, "session"); err != nil {
			return err
		}
	case KindReport:
		objectID, rep, err := decodeReportPayload(rec.Payload)
		if err != nil {
			return err
		}
		i := st.historyFor(objectID)
		st.History[i].Reports, _ = ApplyReport(st.History[i].Reports, rep, st.Meta.MaxNomadicSites)
	case KindRoundSolved:
		var rs RoundSolved
		if err := decodeJSON(rec.Payload, &rs, "round_solved"); err != nil {
			return err
		}
		st.Estimates = append(st.Estimates, rs.Estimate)
		st.Finished = append(st.Finished, rs.Estimate.RoundID)
		if len(st.Finished) > MaxFinishedRounds {
			st.Finished = st.Finished[1:]
		}
	default:
		return fmt.Errorf("%w: unknown record kind %d at seq %d", ErrCorrupt, rec.Kind, rec.Seq)
	}
	st.Seq = rec.Seq
	return nil
}

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	// Records is how many records were replayed (snapshot excluded).
	Records int `json:"records"`
	// SnapshotSeq is the sequence the loaded snapshot covered (0 when
	// recovery started from an empty state).
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// LastSeq is the final applied sequence number.
	LastSeq uint64 `json:"lastSeq"`
	// Segments is how many segment files survived recovery.
	Segments int `json:"segments"`
	// TruncatedBytes counts bytes cut from the final segment's torn tail.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// Duration is the wall (or injected-clock) time recovery took.
	Duration time.Duration `json:"duration"`
}

// loadSnapshot reads and validates one snapshot file, returning its state.
func loadSnapshot(path string) (*State, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	if len(buf) < snapshotHeaderSize {
		return nil, fmt.Errorf("%w: snapshot %s too short", ErrCorrupt, filepath.Base(path))
	}
	if [8]byte(buf[:8]) != snapshotMagic {
		return nil, fmt.Errorf("%w: snapshot %s has wrong magic", ErrCorrupt, filepath.Base(path))
	}
	seq := binary.BigEndian.Uint64(buf[12:20])
	bodyLen := int(binary.BigEndian.Uint32(buf[20:24]))
	wantCRC := binary.BigEndian.Uint32(buf[24:28])
	if len(buf) != snapshotHeaderSize+bodyLen {
		return nil, fmt.Errorf("%w: snapshot %s body length mismatch", ErrCorrupt, filepath.Base(path))
	}
	body := buf[snapshotHeaderSize:]
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, fmt.Errorf("%w: snapshot %s checksum mismatch", ErrCorrupt, filepath.Base(path))
	}
	if v := binary.BigEndian.Uint32(buf[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot %s has version %d, want %d", ErrFormatVersion, filepath.Base(path), v, FormatVersion)
	}
	st := &State{}
	if err := json.Unmarshal(body, st); err != nil {
		return nil, fmt.Errorf("%w: snapshot %s body: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if st.Seq != seq {
		return nil, fmt.Errorf("%w: snapshot %s header seq %d != body seq %d", ErrCorrupt, filepath.Base(path), seq, st.Seq)
	}
	return st, nil
}

// encodeSnapshot renders a snapshot file image for st.
func encodeSnapshot(st *State) ([]byte, error) {
	body, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	buf := make([]byte, snapshotHeaderSize, snapshotHeaderSize+len(body))
	copy(buf[:8], snapshotMagic[:])
	binary.BigEndian.PutUint32(buf[8:12], FormatVersion)
	binary.BigEndian.PutUint64(buf[12:20], st.Seq)
	binary.BigEndian.PutUint32(buf[20:24], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[24:28], crc32.Checksum(body, castagnoli))
	return append(buf, body...), nil
}

// segmentScan is the outcome of scanning one segment file.
type segmentScan struct {
	entry    fileEntry
	records  []Record // the valid records, contiguous from entry.seq
	goodSize int64    // byte offset after the last valid record; 0 for a torn header
	torn     int64    // bytes beyond goodSize (candidate truncation)
}

// scanSegment reads one segment file and parses records until the first
// invalid byte or out-of-sequence record.
func scanSegment(dir string, entry fileEntry) (*segmentScan, error) {
	buf, err := os.ReadFile(filepath.Join(dir, entry.name))
	if err != nil {
		return nil, fmt.Errorf("journal: read segment: %w", err)
	}
	sc := &segmentScan{entry: entry}
	if herr := checkSegmentHeader(buf, entry); herr != nil {
		if errors.Is(herr, ErrFormatVersion) {
			return nil, herr
		}
		// The whole file is unusable — a crash during segment creation
		// (torn header) or foreign bytes. goodSize 0 lets the walk decide
		// whether that is a clean tail or interior corruption.
		sc.torn = int64(len(buf))
		return sc, nil
	}
	off := int64(segmentHeaderSize)
	rest := buf[segmentHeaderSize:]
	wantSeq := entry.seq
	for len(rest) > 0 {
		rec, n, ok := parseRecord(rest)
		if !ok || rec.Seq != wantSeq {
			break
		}
		sc.records = append(sc.records, rec)
		off += int64(n)
		rest = rest[n:]
		wantSeq++
	}
	sc.goodSize = off
	sc.torn = int64(len(buf)) - off
	return sc, nil
}
