package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/nomloc/nomloc/internal/wire"
)

// writeFixture writes fillJournal's five records into a fresh journal
// under dir and closes it.
func writeFixture(t *testing.T, dir string, opts Options) {
	t.Helper()
	opts.Dir, opts.NoSync = dir, true
	j, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillJournal(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotDir snapshots the state dir recovers to, optionally compacts,
// and closes the journal again.
func snapshotDir(t *testing.T, dir string, compact bool) {
	t.Helper()
	j := openTest(t, dir)
	if err := j.Snapshot(j.stateForSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if compact {
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// newestSnapshot returns the path of dir's newest snapshot file.
func newestSnapshot(t *testing.T, dir string) string {
	t.Helper()
	_, snapshots, err := listDir(dir)
	if err != nil || len(snapshots) == 0 {
		t.Fatalf("no snapshot in %s (%v)", dir, err)
	}
	return filepath.Join(dir, snapshots[len(snapshots)-1].name)
}

// rewriteFile applies edit to the bytes of path.
func rewriteFile(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(buf), 0o644); err != nil {
		t.Fatal(err)
	}
}

// setVersion rewrites a segment's or snapshot's format version to v and
// keeps its checksum valid: a segment's header CRC is recomputed, and a
// snapshot's CRC covers only its body.
func setVersion(t *testing.T, path string, v uint32) {
	t.Helper()
	rewriteFile(t, path, func(buf []byte) []byte {
		binary.BigEndian.PutUint32(buf[8:12], v)
		if strings.HasSuffix(path, ".seg") {
			binary.BigEndian.PutUint32(buf[20:24], crc32.Checksum(buf[:20], castagnoli))
		}
		return buf
	})
}

// drainDir drains a TailDir from the start and returns how many records
// it yielded before reporting done.
func drainDir(dir string) (uint64, error) {
	tail, err := TailDir(dir, 0)
	if err != nil {
		return 0, err
	}
	defer tail.Close()
	for n := uint64(0); ; n++ {
		_, done, err := tail.Next()
		if err != nil || done {
			return n, err
		}
	}
}

// TestReadersAgree: Open, ReadState, Verify and TailDir read every
// directory shape by the walk's one set of rules — they return the same
// sentinel, or reach the same last seq — and a refused directory is left
// byte-identical.
func TestReadersAgree(t *testing.T) {
	cases := []struct {
		name    string
		build   func(t *testing.T, dir string)
		wantErr error  // the sentinel every reader returns, or nil
		wantSeq uint64 // otherwise the last seq every reader reaches
	}{
		{
			name:    "clean",
			build:   func(t *testing.T, dir string) { writeFixture(t, dir, Options{}) },
			wantSeq: 5,
		},
		{
			name: "segment version 2",
			build: func(t *testing.T, dir string) {
				writeFixture(t, dir, Options{})
				setVersion(t, segmentPath(dir, 1), 2)
			},
			wantErr: ErrFormatVersion,
		},
		{
			name: "snapshot version 2",
			build: func(t *testing.T, dir string) {
				writeFixture(t, dir, Options{})
				snapshotDir(t, dir, false)
				setVersion(t, newestSnapshot(t, dir), 2)
			},
			wantErr: ErrFormatVersion,
		},
		{
			// Compaction left one segment (seqs 13–14); without the
			// snapshot the records before it are gone.
			name: "corrupt snapshot after compaction",
			build: func(t *testing.T, dir string) {
				j, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := j.AppendMeta(testMeta()); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 12; i++ {
					if err := j.AppendSessionOpen(wire.RoleAP, "ap"); err != nil {
						t.Fatal(err)
					}
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				j = openTest(t, dir)
				if err := j.AppendSessionClose(wire.RoleAP, "ap"); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				snapshotDir(t, dir, true)
				if segments, _, err := listDir(dir); err != nil || len(segments) != 1 || segments[0].seq != 13 {
					t.Fatalf("segments after compaction = %+v (%v), want one at seq 13", segments, err)
				}
				rewriteFile(t, newestSnapshot(t, dir), func(buf []byte) []byte {
					buf[len(buf)-2] ^= 0x01
					return buf
				})
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "corrupt record in a non-final segment",
			build: func(t *testing.T, dir string) {
				writeFixture(t, dir, Options{SegmentMaxBytes: 256})
				rewriteFile(t, segmentPath(dir, 1), func(buf []byte) []byte {
					buf[len(buf)-1] ^= 0xff
					return buf
				})
			},
			wantErr: ErrCorrupt,
		},
		{
			// A crash while rolling: the next segment's header is torn.
			name: "torn final segment header",
			build: func(t *testing.T, dir string) {
				j := openTest(t, dir)
				if err := j.AppendMeta(testMeta()); err != nil {
					t.Fatal(err)
				}
				if err := j.AppendSessionOpen(wire.RoleAP, "ap"); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(segmentPath(dir, 3), encodeSegmentHeader(3)[:10], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSeq: 2,
		},
		{
			name: "torn record tail",
			build: func(t *testing.T, dir string) {
				writeFixture(t, dir, Options{})
				torn := appendRecord(nil, Record{Seq: 6, Kind: KindSessionClose, Payload: []byte(`{}`)})
				rewriteFile(t, segmentPath(dir, 1), func(buf []byte) []byte {
					return append(buf, torn[:len(torn)/2]...)
				})
			},
			wantSeq: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			before, err := dirBytes(dir)
			if err != nil {
				t.Fatal(err)
			}

			// Open runs last: on success it repairs the tail.
			type outcome struct {
				reader string
				seq    uint64
				err    error
			}
			_, stats, err := ReadState(dir)
			got := []outcome{{"ReadState", stats.LastSeq, err}}
			var visited uint64
			vr, err := Verify(dir)
			if err == nil {
				visited = uint64(vr.Records)
			}
			got = append(got, outcome{"Verify", visited, err})
			drained, err := drainDir(dir)
			got = append(got, outcome{"TailDir", drained, err})
			var opened uint64
			j, err := Open(Options{Dir: dir, NoSync: true})
			if err == nil {
				opened = j.LastSeq()
				if cerr := j.Close(); cerr != nil {
					t.Fatal(cerr)
				}
			}
			got = append(got, outcome{"Open", opened, err})

			for _, o := range got {
				if tc.wantErr != nil && !errors.Is(o.err, tc.wantErr) {
					t.Errorf("%s: err = %v, want %v", o.reader, o.err, tc.wantErr)
				}
				if tc.wantErr == nil && (o.err != nil || o.seq != tc.wantSeq) {
					t.Errorf("%s: seq %d, err %v; want seq %d", o.reader, o.seq, o.err, tc.wantSeq)
				}
			}
			if tc.wantErr == nil {
				return
			}
			after, err := dirBytes(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Error("a refused directory was modified")
			}
		})
	}
}
