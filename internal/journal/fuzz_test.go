package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSegment renders a well-formed single-segment journal image for the
// seed corpus.
func fuzzSegment(recs []Record) []byte {
	buf := encodeSegmentHeader(1)
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
	}
	return buf
}

// FuzzJournalRecover feeds arbitrary bytes to the recovery path as a
// segment file. Recovery must never panic, must agree with the read-only
// ReadState, and must leave the file untouched when it fails; when it
// succeeds, it must be idempotent — a second Open of the recovered
// directory sees the same state with nothing further truncated, which is
// exactly the crash-loop safety property the server relies on.
func FuzzJournalRecover(f *testing.F) {
	metaPayload, err := json.Marshal(testMeta())
	if err != nil {
		f.Fatal(err)
	}
	clean := fuzzSegment([]Record{
		{Seq: 1, Kind: KindMeta, Payload: metaPayload},
		{Seq: 2, Kind: KindSessionOpen, Payload: []byte(`{"role":"object","id":"obj1"}`)},
		{Seq: 3, Kind: KindRoundSolved, Payload: []byte(`{"estimate":{"roundId":1,"objectId":"obj1","pos":{"x":1,"y":2},"relaxCost":0,"numAnchors":2},"anchors":[]}`)},
	})
	f.Add(clean)
	f.Add(clean[:len(clean)-1])           // torn tail: one byte short
	f.Add(clean[:segmentHeaderSize])      // header only
	f.Add(clean[:segmentHeaderSize-3])    // torn header
	f.Add([]byte{})                       // empty file
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // foreign bytes
	flipped := append([]byte(nil), clean...)
	flipped[segmentHeaderSize+5] ^= 0x20 // corrupt the first record's body
	f.Add(flipped)
	truncMid := append([]byte(nil), clean[:segmentHeaderSize+10]...)
	f.Add(truncMid) // record cut mid-body
	// A newer format version, and version 1, the one before the binary
	// wire codec.
	for _, v := range []uint32{FormatVersion + 1, 1} {
		other := append([]byte(nil), clean...)
		binary.BigEndian.PutUint32(other[8:12], v)
		binary.BigEndian.PutUint32(other[20:24], crc32.Checksum(other[:20], castagnoli))
		f.Add(other) // valid header of another format version
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The read-only walk must agree with the recovery that follows it.
		readState, readStats, readErr := ReadState(dir)
		j, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			// Rejection must be typed, never a panic or an opaque failure,
			// and must leave the file as it was.
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoMeta) && !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("Open: untyped recovery failure: %v", err)
			}
			if readErr == nil {
				t.Fatalf("ReadState succeeded where Open failed with %v", err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("failed Open modified the segment (read err %v)", rerr)
			}
			return
		}
		if readErr != nil {
			t.Fatalf("ReadState failed with %v where Open succeeded", readErr)
		}
		firstState, err := json.Marshal(j.State())
		if err != nil {
			t.Fatal(err)
		}
		firstSeq := j.LastSeq()
		if readJSON, merr := json.Marshal(readState); merr != nil || !bytes.Equal(readJSON, firstState) || readStats.LastSeq != firstSeq {
			t.Fatalf("ReadState (seq %d) disagrees with Open (seq %d):\n read %s\n open %s",
				readStats.LastSeq, firstSeq, readJSON, firstState)
		}
		firstTrunc := j.Stats().TruncatedBytes
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		j2, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("second Open after successful recovery: %v", err)
		}
		defer func() {
			if cerr := j2.Close(); cerr != nil {
				t.Errorf("Close: %v", cerr)
			}
		}()
		if j2.Stats().TruncatedBytes != 0 && firstTrunc == 0 {
			t.Fatalf("second recovery truncated %d bytes on a journal the first left clean",
				j2.Stats().TruncatedBytes)
		}
		secondState, err := json.Marshal(j2.State())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(firstState, secondState) {
			t.Fatalf("recovery not idempotent:\n first  %s\n second %s", firstState, secondState)
		}
		if j2.LastSeq() != firstSeq {
			t.Fatalf("recovered seq drifted: %d then %d", firstSeq, j2.LastSeq())
		}
	})
}
