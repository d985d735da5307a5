// Package journal is the server's durability substrate: a zero-dependency,
// deterministic write-ahead log plus snapshot store. Every state change
// the localization pipeline accumulates — stored CSI reports, solved
// rounds, session lifecycle — is appended to CRC32C-checksummed segment
// files BEFORE the change is acknowledged to any agent, so a process
// crash loses at most un-acked work, which the wire protocol's
// idempotent re-send path replays anyway.
//
// Three properties shape the design:
//
//   - Byte-stable content. Records carry no timestamps and no map-order
//     dependence: report payloads re-use the wire protocol's own frame
//     encoding, snapshots serialize State in canonical field and sort
//     order, and the injected telemetry.Clock feeds only recovery-duration
//     metrics, never the files. Two identical runs write identical bytes.
//
//   - Torn-tail tolerance. Recovery replays snapshot + segment tail and
//     truncates at the first bad checksum in the final segment — a clean
//     torn tail (the normal crash shape) never fails recovery. Corruption
//     in the committed interior is a typed ErrCorrupt.
//
//   - Crash-point testability. Every append consults an optional
//     CrashHook at named points (before the write, mid-write, after the
//     fsync), which internal/chaos arms to simulate a kill between append
//     and ack; the conformance suite proves recovery converges to the
//     uninterrupted run's exact estimates.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/nomloc/nomloc/internal/telemetry"
	"github.com/nomloc/nomloc/internal/wire"
)

// Crash-point names consulted through Options.CrashHook, in the order an
// append visits them. internal/chaos mirrors these as chaos.CrashPoint
// constants; the string values are the contract.
const (
	PointAppendBefore   = "append:before"   // nothing written yet
	PointAppendTorn     = "append:torn"     // half the record written, then killed
	PointAppendAfter    = "append:after"    // record durable, ack never sent
	PointSnapshotBefore = "snapshot:before" // snapshot not yet written
	PointSnapshotAfter  = "snapshot:after"  // snapshot durable, compact not run
)

// Journal errors.
var (
	// ErrClosed is returned by operations on a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrBroken is returned once a previous append failed (or a crash
	// hook fired): the on-disk tail is in an unknown state and the owner
	// must recover through a fresh Open.
	ErrBroken = errors.New("journal: broken by earlier failure")
	// ErrSeqGap is returned by AppendRaw when the record's sequence
	// number is not exactly the next one — replication must deliver a
	// contiguous stream.
	ErrSeqGap = errors.New("journal: raw append out of sequence")
)

// Options parameterizes Open.
type Options struct {
	// Dir is the journal directory, created if absent. Required.
	Dir string
	// Clock feeds the recovery-duration metric. It never influences file
	// bytes. Nil leaves durations zero (and the journal fully
	// deterministic even under telemetry).
	Clock telemetry.Clock
	// Telemetry, when set, receives the nomloc_journal_* instruments.
	Telemetry *telemetry.Registry
	// SegmentMaxBytes rolls the active segment once it would exceed this
	// size. Defaults to 4 MiB.
	SegmentMaxBytes int64
	// NoSync skips fsync after appends and snapshots. Tests only: a real
	// deployment that sets this trades the WAL's durability guarantee
	// away.
	NoSync bool
	// CrashHook, when set, is consulted at the named crash points. A
	// non-nil return simulates a kill at that point: the journal marks
	// itself broken and the operation fails with the returned error.
	// internal/chaos provides deterministic hooks.
	CrashHook func(point string) error
}

// Journal is an open write-ahead log. Create with Open; Open performs
// recovery, so a Journal is always positioned at a consistent tail.
// Methods are safe for concurrent use.
type Journal struct {
	opts    Options
	metrics *journalMetrics

	mu       sync.Mutex
	buf      []byte   // record buffer, reused by every append
	seg      *os.File // active segment, positioned at its end
	segFirst uint64   // active segment's first record seq
	segSize  int64    // active segment's current byte size
	segCount int      // live segment files (active included)
	nextSeq  uint64   // seq the next append will carry
	state    *State   // state recovered at Open; owned by the caller after State()
	stats    RecoveryStats
	fresh    bool // no records existed at Open
	broken   bool
	closed   bool
}

// Open recovers the journal in opts.Dir (creating it when absent) and
// opens it for appending. The recovered state is available via State,
// recovery statistics via Stats.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, errors.New("journal: options need a directory")
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{
		opts:    opts,
		metrics: newJournalMetrics(opts.Telemetry),
	}
	start := j.now()
	// The journal is not shared yet, but recover reaches *Locked helpers,
	// so hold the mutex for the analyzer-visible invariant.
	j.mu.Lock()
	err := j.recoverLocked()
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	j.stats.Duration = j.now().Sub(start)
	j.metrics.recovered(j.stats, j.segCount)
	return j, nil
}

// now reads the injected clock (zero time without one, so durations stay
// zero and never perturb determinism).
func (j *Journal) now() time.Time {
	if j.opts.Clock == nil {
		return time.Time{}
	}
	return j.opts.Clock()
}

// recoverLocked walks the directory, replays it, and only then repairs
// the tail the walk reported — truncating the final segment's torn bytes,
// or replacing it when its header is torn — before opening the active
// segment for appending.
func (j *Journal) recoverLocked() error {
	st, stats, w, err := replayDir(j.opts.Dir)
	if err != nil {
		return err
	}
	j.state, j.stats = st, stats
	j.nextSeq = stats.LastSeq + 1
	j.fresh = stats.LastSeq == 0
	j.segCount = w.segments
	defer func() { j.stats.Segments = j.segCount }()

	if t := w.tail; t != nil {
		path := filepath.Join(j.opts.Dir, t.entry.name)
		switch {
		case t.goodSize == 0:
			if rerr := os.Remove(path); rerr != nil {
				return fmt.Errorf("journal: remove torn segment: %w", rerr)
			}
			j.segCount--
		case t.torn > 0:
			if terr := os.Truncate(path, t.goodSize); terr != nil {
				return fmt.Errorf("journal: truncate torn tail: %w", terr)
			}
		}
		// Append to the final segment only when its records end exactly
		// where the next append begins.
		if t.goodSize > 0 && t.entry.seq+uint64(len(t.records)) == j.nextSeq {
			f, oerr := os.OpenFile(path, os.O_RDWR, 0o644)
			if oerr != nil {
				return fmt.Errorf("journal: open segment: %w", oerr)
			}
			size, serr := f.Seek(0, 2)
			if serr != nil {
				cerr := f.Close()
				return fmt.Errorf("journal: seek segment: %w", errors.Join(serr, cerr))
			}
			j.seg = f
			j.segFirst = t.entry.seq
			j.segSize = size
			return nil
		}
	}
	return j.createSegmentLocked()
}

// createSegmentLocked creates and syncs a fresh segment for nextSeq and
// installs it as the active segment.
func (j *Journal) createSegmentLocked() error {
	path := segmentPath(j.opts.Dir, j.nextSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	hdr := encodeSegmentHeader(j.nextSeq)
	if _, werr := f.Write(hdr); werr != nil {
		cerr := f.Close()
		return fmt.Errorf("journal: write segment header: %w", errors.Join(werr, cerr))
	}
	if !j.opts.NoSync {
		if serr := f.Sync(); serr != nil {
			cerr := f.Close()
			return fmt.Errorf("journal: sync segment header: %w", errors.Join(serr, cerr))
		}
		if derr := syncDir(j.opts.Dir); derr != nil {
			cerr := f.Close()
			return errors.Join(derr, cerr)
		}
		j.metrics.fsync(2)
	}
	j.seg = f
	j.segFirst = j.nextSeq
	j.segSize = segmentHeaderSize
	j.segCount++
	j.metrics.segments(j.segCount)
	return nil
}

// State returns the state recovered at Open. The caller takes ownership:
// the journal never reads or mutates it after Open.
func (j *Journal) State() *State { return j.state }

// Stats returns the recovery statistics of the Open that produced j.
func (j *Journal) Stats() RecoveryStats { return j.stats }

// Fresh reports whether the journal contained no records at Open — the
// owner writes the meta record exactly once, on a fresh journal.
func (j *Journal) Fresh() bool { return j.fresh }

// Broken reports whether an earlier failure (or crash hook) left the
// on-disk tail in an unknown state. A broken journal refuses all writes;
// the owner must halt and recover through a fresh Open.
func (j *Journal) Broken() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broken
}

// LastSeq returns the sequence number of the most recently appended (or
// recovered) record.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// hook consults the crash hook for one named point. A non-nil result
// marks the journal broken: the simulated process is dead.
func (j *Journal) hookLocked(point string) error {
	if j.opts.CrashHook == nil {
		return nil
	}
	if err := j.opts.CrashHook(point); err != nil {
		j.broken = true
		return fmt.Errorf("journal: crash at %s: %w", point, err)
	}
	return nil
}

// payloadFunc appends a record's payload to the record being built.
type payloadFunc func(dst []byte) ([]byte, error)

// rawPayload is the payloadFunc of an already-encoded payload.
func rawPayload(p []byte) payloadFunc {
	return func(dst []byte) ([]byte, error) { return append(dst, p...), nil }
}

// append durably writes the next record, rolling the segment when full.
// It is the single write path every Append* method funnels into.
func (j *Journal) append(kind Kind, payload payloadFunc) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return ErrClosed
	case j.broken:
		return ErrBroken
	}
	return j.appendLocked(j.nextSeq, kind, payload)
}

// AppendRaw durably writes one already-sequenced record — the standby's
// write path for replicated records, which must keep the primary's
// sequence numbers so the two journals stay byte-interchangeable.
// rec.Seq must be exactly LastSeq+1; a gap or overlap is ErrSeqGap.
func (j *Journal) AppendRaw(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return ErrClosed
	case j.broken:
		return ErrBroken
	}
	if rec.Seq != j.nextSeq {
		return fmt.Errorf("%w: got seq %d, want %d", ErrSeqGap, rec.Seq, j.nextSeq)
	}
	return j.appendLocked(rec.Seq, rec.Kind, rawPayload(rec.Payload))
}

// maxKeptRecordBytes bounds the record buffer a journal keeps between
// appends, so one outsized record does not pin its memory for the
// journal's lifetime.
const maxKeptRecordBytes = 64 << 10

// appendLocked is the shared durable-write core: encode the whole record
// once into the journal's reused buffer, roll when full, write, fsync,
// then advance nextSeq. seq must equal j.nextSeq.
func (j *Journal) appendLocked(seq uint64, kind Kind, payload payloadFunc) error {
	buf, err := payload(beginRecord(j.buf[:0], seq, kind))
	if err != nil {
		return err
	}
	sealRecord(buf)
	if cap(buf) <= maxKeptRecordBytes {
		j.buf = buf[:0]
	}
	if err := j.hookLocked(PointAppendBefore); err != nil {
		return err
	}
	if len(buf) > maxRecordBytes {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(buf))
	}
	if j.segSize+int64(len(buf)) > j.opts.SegmentMaxBytes && j.segSize > segmentHeaderSize {
		if err := j.rollLocked(); err != nil {
			j.broken = true
			return err
		}
	}
	if err := j.hookLocked(PointAppendTorn); err != nil {
		// Simulate the kill mid-write: half the record reaches the disk.
		if _, werr := j.seg.Write(buf[:len(buf)/2]); werr == nil && !j.opts.NoSync {
			_ = j.seg.Sync() //nomloc:errdrop-ok simulating a crash; the torn bytes' durability is best-effort by definition
		}
		return err
	}
	if _, err := j.seg.Write(buf); err != nil {
		j.broken = true
		return fmt.Errorf("journal: append: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.seg.Sync(); err != nil {
			j.broken = true
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.metrics.fsync(1)
	}
	j.segSize += int64(len(buf))
	j.nextSeq++
	j.metrics.appended(kind, len(buf))
	if err := j.hookLocked(PointAppendAfter); err != nil {
		return err
	}
	return nil
}

// rollLocked closes the active segment and starts the next one.
func (j *Journal) rollLocked() error {
	if !j.opts.NoSync {
		if err := j.seg.Sync(); err != nil {
			return fmt.Errorf("journal: sync before roll: %w", err)
		}
		j.metrics.fsync(1)
	}
	if err := j.seg.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.seg = nil
	return j.createSegmentLocked()
}

// AppendMeta writes the journal's meta record. The owner calls it exactly
// once, immediately after opening a Fresh journal.
func (j *Journal) AppendMeta(m Meta) error {
	m.FormatVersion = FormatVersion
	return j.appendJSON(KindMeta, m)
}

// AppendSessionOpen records one agent session registering.
func (j *Journal) AppendSessionOpen(role wire.Role, id string) error {
	return j.appendJSON(KindSessionOpen, SessionEvent{Role: role, ID: id})
}

// AppendSessionClose records one agent session ending.
func (j *Journal) AppendSessionClose(role wire.Role, id string) error {
	return j.appendJSON(KindSessionClose, SessionEvent{Role: role, ID: id})
}

// AppendReport records one stored CSI report for objectID. The server
// calls this BEFORE acknowledging the report — the WAL contract. The
// report is encoded once, straight into the record.
func (j *Journal) AppendReport(objectID string, rep *wire.CSIReport) error {
	return j.append(KindReport, func(dst []byte) ([]byte, error) {
		return appendReportPayload(dst, objectID, rep)
	})
}

// AppendRoundSolved records one successful round solve BEFORE its
// estimate is broadcast.
func (j *Journal) AppendRoundSolved(rs RoundSolved) error {
	return j.appendJSON(KindRoundSolved, rs)
}

// appendJSON durably writes one record whose payload is v as JSON.
func (j *Journal) appendJSON(kind Kind, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal payload: %w", err)
	}
	return j.append(kind, rawPayload(payload))
}

// Snapshot durably writes st as a snapshot file tagged with st.Seq. The
// caller captures st under the same lock discipline as its appends so
// st.Seq names a consistent prefix; pass LastSeq for st.Seq when
// building the state by hand.
func (j *Journal) Snapshot(st *State) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return ErrClosed
	case j.broken:
		return ErrBroken
	}
	if err := j.hookLocked(PointSnapshotBefore); err != nil {
		return err
	}
	img, err := encodeSnapshot(st)
	if err != nil {
		return err
	}
	// Write-temp-then-rename so a crash mid-snapshot leaves either no
	// snapshot or a complete one, never a half-written newest snapshot
	// (recovery would skip it via the CRC anyway; the rename just keeps
	// the directory tidy under fuzzing).
	final := filepath.Join(j.opts.Dir, snapshotName(st.Seq))
	tmp := final + ".tmp"
	if werr := writeFileSync(tmp, img, !j.opts.NoSync); werr != nil {
		return werr
	}
	if rerr := os.Rename(tmp, final); rerr != nil {
		return fmt.Errorf("journal: publish snapshot: %w", rerr)
	}
	if !j.opts.NoSync {
		if derr := syncDir(j.opts.Dir); derr != nil {
			return derr
		}
		j.metrics.fsync(2)
	}
	j.metrics.snapshot(len(img))
	if err := j.hookLocked(PointSnapshotAfter); err != nil {
		return err
	}
	return nil
}

// Compact removes snapshot-covered files: every segment whose records all
// fall at or below the newest snapshot's sequence (the active segment is
// never removed) and every snapshot older than the newest valid one. Safe
// to call at any time; a crash mid-compact only leaves extra files for
// the next Compact.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	segments, snapshots, err := listDir(j.opts.Dir)
	if err != nil {
		return err
	}
	if len(snapshots) == 0 {
		return nil
	}
	cover := snapshots[len(snapshots)-1].seq
	removed := false
	for i, entry := range segments {
		// A segment's records end where the next segment begins; the
		// last (active) segment always stays.
		if i+1 >= len(segments) || segments[i+1].seq > cover+1 || entry.seq == j.segFirst {
			continue
		}
		if rerr := os.Remove(filepath.Join(j.opts.Dir, entry.name)); rerr != nil {
			return fmt.Errorf("journal: compact segment: %w", rerr)
		}
		j.segCount--
		removed = true
	}
	for _, entry := range snapshots[:len(snapshots)-1] {
		if rerr := os.Remove(filepath.Join(j.opts.Dir, entry.name)); rerr != nil {
			return fmt.Errorf("journal: compact snapshot: %w", rerr)
		}
		removed = true
	}
	if removed && !j.opts.NoSync {
		if derr := syncDir(j.opts.Dir); derr != nil {
			return derr
		}
		j.metrics.fsync(1)
	}
	j.metrics.segments(j.segCount)
	return nil
}

// Close flushes and closes the active segment. Further operations return
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.closed = true
	if j.seg == nil {
		return nil
	}
	var serr error
	if !j.opts.NoSync && !j.broken {
		serr = j.seg.Sync()
		if serr == nil {
			j.metrics.fsync(1)
		}
	}
	cerr := j.seg.Close()
	j.seg = nil
	if serr != nil {
		return fmt.Errorf("journal: close: %w", errors.Join(serr, cerr))
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}

// writeFileSync writes data to path, fsyncing before close when sync is
// set.
func writeFileSync(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create %s: %w", filepath.Base(path), err)
	}
	if _, werr := f.Write(data); werr != nil {
		cerr := f.Close()
		return fmt.Errorf("journal: write %s: %w", filepath.Base(path), errors.Join(werr, cerr))
	}
	if sync {
		if serr := f.Sync(); serr != nil {
			cerr := f.Close()
			return fmt.Errorf("journal: sync %s: %w", filepath.Base(path), errors.Join(serr, cerr))
		}
	}
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("journal: close %s: %w", filepath.Base(path), cerr)
	}
	return nil
}
