package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrTailGap is returned by a Tail whose cursor points below the oldest
// surviving segment: the records were compacted away and can only be
// recovered from a snapshot, not streamed.
var ErrTailGap = errors.New("journal: tail cursor below oldest segment")

// Tail is a streaming reader over a journal directory: it returns records
// in sequence order, following the live segment as the owner appends and
// rolling into new segments as they appear. A Tail never surfaces a
// record past its durability limit — for a Tail opened on a live Journal
// the limit is the journal's fsync floor (LastSeq), so a record becomes
// visible only after the fsync that committed it, never while its bytes
// are in flight or torn.
//
// A Tail is owned by one goroutine; the journal it follows may append
// concurrently (the segment files are append-only, and the limit hides
// the mutable tail).
type Tail struct {
	dir     string
	limit   func() uint64 // durable floor: the last seq Next may return
	wantSeq uint64        // seq Next returns next

	f   *os.File // open segment (nil until first Next)
	off int64

	hdr [recordHeaderSize]byte
	buf []byte
}

// Tail opens a follower positioned after afterSeq, bounded by the
// journal's fsync floor: Next never returns a record the journal has not
// yet durably committed. The Tail stays valid across appends, segment
// rolls, and compactions above its cursor; it reads files directly and
// takes no journal locks on the hot path.
func (j *Journal) Tail(afterSeq uint64) (*Tail, error) {
	return &Tail{dir: j.opts.Dir, limit: j.LastSeq, wantSeq: afterSeq + 1}, nil
}

// TailDir opens a follower over a journal directory without a live
// Journal — the post-mortem drain path: after a primary dies, its
// surviving directory is streamed to the standby. The directory is walked
// once, by the same rules recovery applies, and the Tail is bounded by the
// last committed seq the walk found: a directory recovery would refuse
// returns the walk's error, and Next reports done where recovery would
// truncate.
func TailDir(dir string, afterSeq uint64) (*Tail, error) {
	w, err := walkDir(dir, nil)
	if err != nil {
		return nil, err
	}
	return &Tail{dir: dir, limit: func() uint64 { return w.lastSeq }, wantSeq: afterSeq + 1}, nil
}

// Seq returns the sequence number of the last record Next returned (the
// initial afterSeq before the first record).
func (t *Tail) Seq() uint64 { return t.wantSeq - 1 }

// Next returns the next record at or below the durability limit. done is
// true when the tail is caught up with the limit; the Tail stays usable
// and a later Next resumes where this one stopped. An error means
// interior corruption or an unreadable directory.
func (t *Tail) Next() (Record, bool, error) {
	if t.wantSeq > t.limit() {
		return Record{}, true, nil
	}
	for {
		if t.f == nil {
			found, err := t.locate()
			if err != nil {
				return Record{}, false, err
			}
			if !found {
				// The limit says the record is durable, but no segment
				// holds it: the directory lost its tail.
				return Record{}, false, fmt.Errorf("%w: no segment holds seq %d", ErrCorrupt, t.wantSeq)
			}
		}
		rec, n, ok, err := t.read()
		if err != nil {
			return Record{}, false, err
		}
		if !ok {
			// No complete record at the offset, yet the limit says it is
			// durable: the segment rolled, and the record starts the next
			// file.
			if cerr := t.closeSegment(); cerr != nil {
				return Record{}, false, cerr
			}
			found, lerr := t.locateExact()
			if lerr != nil {
				return Record{}, false, lerr
			}
			if !found {
				return Record{}, false, fmt.Errorf("%w: seq %d within limit but past segment end", ErrCorrupt, t.wantSeq)
			}
			continue
		}
		if rec.Seq != t.wantSeq {
			return Record{}, false, fmt.Errorf("%w: tail read seq %d, want %d", ErrCorrupt, rec.Seq, t.wantSeq)
		}
		t.off += int64(n)
		t.wantSeq++
		return rec, false, nil
	}
}

// locate finds and opens the segment containing wantSeq, scanning past
// earlier records in the file. found is false when no segment could hold
// it (an empty directory or a not-yet-created tail segment).
func (t *Tail) locate() (bool, error) {
	segments, _, err := listDir(t.dir)
	if err != nil {
		return false, err
	}
	idx := -1
	for i, entry := range segments {
		if entry.seq <= t.wantSeq {
			idx = i
		}
	}
	if idx < 0 {
		if len(segments) > 0 && segments[0].seq > t.wantSeq {
			return false, fmt.Errorf("%w: want seq %d, oldest segment starts at %d",
				ErrTailGap, t.wantSeq, segments[0].seq)
		}
		return false, nil
	}
	if err := t.openSegment(segments[idx]); err != nil {
		return false, err
	}
	// Skip records below the cursor (CRC-checked on the way past).
	for {
		rec, n, ok, rerr := t.read()
		if rerr != nil {
			return false, rerr
		}
		if !ok || rec.Seq >= t.wantSeq {
			return true, nil
		}
		t.off += int64(n)
	}
}

// locateExact opens the segment whose first record is exactly wantSeq —
// the roll-boundary continuation.
func (t *Tail) locateExact() (bool, error) {
	segments, _, err := listDir(t.dir)
	if err != nil {
		return false, err
	}
	for _, entry := range segments {
		if entry.seq == t.wantSeq {
			if oerr := t.openSegment(entry); oerr != nil {
				return false, oerr
			}
			return true, nil
		}
	}
	return false, nil
}

// openSegment opens entry, validates its header, and positions the read
// offset at the first record.
func (t *Tail) openSegment(entry fileEntry) error {
	f, err := os.Open(filepath.Join(t.dir, entry.name))
	if err != nil {
		return fmt.Errorf("journal: tail open segment: %w", err)
	}
	hdr := make([]byte, segmentHeaderSize)
	if _, rerr := io.ReadFull(f, hdr); rerr != nil {
		cerr := f.Close()
		return fmt.Errorf("%w: tail segment %s header: %v", ErrCorrupt, entry.name, errors.Join(rerr, cerr))
	}
	if herr := checkSegmentHeader(hdr, entry); herr != nil {
		return errors.Join(herr, f.Close())
	}
	t.f = f
	t.off = segmentHeaderSize
	return nil
}

// closeSegment releases the open segment file, keeping the cursor.
func (t *Tail) closeSegment() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	if err != nil {
		return fmt.Errorf("journal: tail close segment: %w", err)
	}
	return nil
}

// read loads bytes at the current offset and parses one record without
// consuming it; the caller advances t.off by n to consume. ok is false
// when no complete, checksum-valid record is present at the offset.
func (t *Tail) read() (Record, int, bool, error) {
	n, err := t.f.ReadAt(t.hdr[:], t.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return Record{}, 0, false, fmt.Errorf("journal: tail read: %w", err)
	}
	if n < recordHeaderSize {
		return Record{}, 0, false, nil
	}
	bodyLen := int(binary.BigEndian.Uint32(t.hdr[:4]))
	if bodyLen < 9 || bodyLen > maxRecordBytes {
		return Record{}, 0, false, nil
	}
	total := recordHeaderSize + bodyLen
	if cap(t.buf) < total {
		t.buf = make([]byte, total)
	}
	t.buf = t.buf[:total]
	copy(t.buf, t.hdr[:])
	m, err := t.f.ReadAt(t.buf[recordHeaderSize:], t.off+recordHeaderSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return Record{}, 0, false, fmt.Errorf("journal: tail read: %w", err)
	}
	if m < bodyLen {
		return Record{}, 0, false, nil
	}
	rec, n2, ok := parseRecord(t.buf)
	if !ok {
		return Record{}, 0, false, nil
	}
	return rec, n2, true, nil
}

// Close releases the Tail's file handle. The Tail must not be used after.
func (t *Tail) Close() error { return t.closeSegment() }
