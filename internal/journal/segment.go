package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk identifiers. The magic strings never change: a file with any
// other magic reads as torn or foreign bytes, so FormatVersion is the only
// gate between layouts.
var (
	segmentMagic  = [8]byte{'N', 'L', 'J', 'S', 'E', 'G', '0', '1'}
	snapshotMagic = [8]byte{'N', 'L', 'J', 'S', 'N', 'P', '0', '1'}
)

// FormatVersion is the journal format this package reads and writes.
const FormatVersion uint32 = 1

// segmentHeaderSize is the fixed segment preamble:
//
//	[magic 8][version u32][firstSeq u64][crc32c u32]
//
// where the CRC covers the 20 bytes before it.
const segmentHeaderSize = 24

// snapshotHeaderSize is the snapshot preamble:
//
//	[magic 8][version u32][seq u64][bodyLen u32][bodyCRC u32]
const snapshotHeaderSize = 28

// segmentName renders the file name of the segment whose first record
// carries firstSeq.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstSeq)
}

// snapshotName renders the file name of the snapshot taken after seq.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", seq)
}

// encodeSegmentHeader renders a segment preamble.
func encodeSegmentHeader(firstSeq uint64) []byte {
	buf := make([]byte, segmentHeaderSize)
	copy(buf[:8], segmentMagic[:])
	binary.BigEndian.PutUint32(buf[8:12], FormatVersion)
	binary.BigEndian.PutUint64(buf[12:20], firstSeq)
	binary.BigEndian.PutUint32(buf[20:24], crc32.Checksum(buf[:20], castagnoli))
	return buf
}

// checkSegmentHeader validates entry's segment preamble. A short,
// foreign or corrupted header, or one naming another first seq than the
// file name, is ErrCorrupt; a valid header of another format version is
// ErrFormatVersion.
func checkSegmentHeader(buf []byte, entry fileEntry) error {
	if len(buf) < segmentHeaderSize || [8]byte(buf[:8]) != segmentMagic ||
		crc32.Checksum(buf[:20], castagnoli) != binary.BigEndian.Uint32(buf[20:24]) {
		return fmt.Errorf("%w: segment %s has a bad header", ErrCorrupt, entry.name)
	}
	if v := binary.BigEndian.Uint32(buf[8:12]); v != FormatVersion {
		return fmt.Errorf("%w: segment %s has version %d, want %d", ErrFormatVersion, entry.name, v, FormatVersion)
	}
	if firstSeq := binary.BigEndian.Uint64(buf[12:20]); firstSeq != entry.seq {
		return fmt.Errorf("%w: segment %s header starts at seq %d", ErrCorrupt, entry.name, firstSeq)
	}
	return nil
}

// fileEntry is one journal file found on disk.
type fileEntry struct {
	name string
	seq  uint64 // firstSeq for segments, covered seq for snapshots
}

// listDir enumerates the directory's segment and snapshot files in
// ascending sequence order. Unrelated files are ignored.
func listDir(dir string) (segments, snapshots []fileEntry, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			seq, perr := parseSeqName(name, "wal-", ".seg")
			if perr != nil {
				continue // foreign file that happens to match the shape
			}
			segments = append(segments, fileEntry{name: name, seq: seq})
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			seq, perr := parseSeqName(name, "snap-", ".snap")
			if perr != nil {
				continue
			}
			snapshots = append(snapshots, fileEntry{name: name, seq: seq})
		}
	}
	sort.Slice(segments, func(i, j int) bool { return segments[i].seq < segments[j].seq })
	sort.Slice(snapshots, func(i, j int) bool { return snapshots[i].seq < snapshots[j].seq })
	return segments, snapshots, nil
}

// parseSeqName extracts the hex sequence number from a journal file name.
func parseSeqName(name, prefix, suffix string) (uint64, error) {
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	return strconv.ParseUint(hexPart, 16, 64)
}

// syncDir fsyncs the directory so file creations, renames, and removals
// are durable. Best effort on filesystems that reject directory syncs.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("journal: sync dir %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close dir %s: %w", dir, cerr)
	}
	return nil
}

// segmentPath joins dir and the segment file for firstSeq.
func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, segmentName(firstSeq))
}
