package replica

// Sender/Applier unit tests against a scripted fake standby, so each
// protocol obligation — exactly-once ordered delivery, resume after a
// dropped link, terminal fencing, dir-mode drains — is pinned without
// the full server in the loop (the real-server integration lives in
// internal/server and internal/chaos).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/wire"
)

// fakeStandby speaks the standby side of the replication protocol with
// scripted behavior.
type fakeStandby struct {
	t     *testing.T
	ln    net.Listener
	epoch uint64 // epoch announced in acks
	fence bool   // nack everything as fenced
	// dropAfter closes the connection after acking this many batches on
	// it (0 = never), forcing the sender through a reconnect.
	dropAfter int

	mu      sync.Mutex
	applied []wire.ReplRecord // exactly-once, in-order record log
	hellos  int
}

func newFakeStandby(t *testing.T, epoch uint64) *fakeStandby {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeStandby{t: t, ln: ln, epoch: epoch}
	go f.acceptLoop()
	t.Cleanup(func() { _ = ln.Close() })
	return f
}

func (f *fakeStandby) addr() string { return f.ln.Addr().String() }

func (f *fakeStandby) floor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.applied); n > 0 {
		return f.applied[n-1].Seq
	}
	return 0
}

func (f *fakeStandby) records() []wire.ReplRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wire.ReplRecord(nil), f.applied...)
}

func (f *fakeStandby) helloCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hellos
}

func (f *fakeStandby) acceptLoop() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		go f.serve(conn)
	}
}

func (f *fakeStandby) serve(conn net.Conn) {
	defer conn.Close()
	batches := 0
	for {
		msg, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.ReplHello:
			f.mu.Lock()
			f.hellos++
			f.mu.Unlock()
			if f.fence {
				_ = wire.WriteMessage(conn, &wire.ReplAck{OK: false, Epoch: f.epoch, Detail: "fenced: stale epoch"})
				return
			}
			_ = wire.WriteMessage(conn, &wire.ReplAck{OK: true, Epoch: f.epoch, Seq: f.floor()})
		case *wire.ReplBatch:
			if f.fence {
				_ = wire.WriteMessage(conn, &wire.ReplAck{OK: false, Epoch: f.epoch, Detail: "fenced: stale epoch"})
				return
			}
			f.mu.Lock()
			for _, r := range m.Records {
				last := uint64(0)
				if n := len(f.applied); n > 0 {
					last = f.applied[n-1].Seq
				}
				if r.Seq <= last {
					continue // re-sent tail: absorbed idempotently
				}
				if r.Seq != last+1 {
					f.t.Errorf("fake standby saw gap: seq %d after %d", r.Seq, last)
				}
				f.applied = append(f.applied, r)
			}
			f.mu.Unlock()
			_ = wire.WriteMessage(conn, &wire.ReplAck{OK: true, Epoch: f.epoch, Seq: f.floor()})
			batches++
			if f.dropAfter > 0 && batches >= f.dropAfter {
				return // drop the link; the sender must reconnect and resume
			}
		}
	}
}

// seedJournal opens a journal in dir and appends meta plus n report
// records, returning it still open.
func seedJournal(t *testing.T, dir string, n int) *journal.Journal {
	t.Helper()
	j, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMeta(journal.Meta{ServerID: "svc", MaxNomadicSites: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.AppendReport("obj1", &wire.CSIReport{RoundID: uint64(i + 1), APID: "ap1"}); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

// runSender starts snd.Run in a goroutine and returns a channel with its
// result.
func runSender(snd *Sender) chan error {
	done := make(chan error, 1)
	go func() { done <- snd.Run() }()
	return done
}

// waitCaught polls until the sender reports the standby caught up.
func waitCaught(t *testing.T, snd *Sender) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !snd.Caught() {
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up (acked %d)", snd.Acked())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkMirrors fails unless the fake standby holds exactly the journal's
// records, in order.
func checkMirrors(t *testing.T, f *fakeStandby, dir string) {
	t.Helper()
	tail, err := journal.TailDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	got := f.records()
	i := 0
	for {
		rec, done, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if i >= len(got) {
			t.Fatalf("standby holds %d records, journal has more (at seq %d)", len(got), rec.Seq)
		}
		if got[i].Seq != rec.Seq || got[i].Kind != uint8(rec.Kind) || string(got[i].Payload) != string(rec.Payload) {
			t.Fatalf("record %d differs: standby (seq %d kind %d) vs journal (seq %d kind %d)",
				i, got[i].Seq, got[i].Kind, rec.Seq, rec.Kind)
		}
		i++
	}
	if i != len(got) {
		t.Fatalf("standby holds %d records, journal holds %d", len(got), i)
	}
}

func TestApplierContiguity(t *testing.T) {
	a := NewApplier(nil)
	meta := journal.Record{Seq: 1, Kind: journal.KindMeta, Payload: []byte(`{"serverId":"svc"}`)}
	if err := a.Apply(meta); err != nil {
		t.Fatal(err)
	}
	// Duplicate and gap are both typed ErrSeqGap.
	if err := a.Apply(meta); !errors.Is(err, journal.ErrSeqGap) {
		t.Errorf("duplicate apply err = %v, want ErrSeqGap", err)
	}
	gap := journal.Record{Seq: 3, Kind: journal.KindSessionOpen, Payload: []byte(`{"role":"ap","id":"x"}`)}
	if err := a.Apply(gap); !errors.Is(err, journal.ErrSeqGap) {
		t.Errorf("gap apply err = %v, want ErrSeqGap", err)
	}
	if a.Seq() != 1 {
		t.Errorf("floor = %d, want 1 (rejected records must not advance it)", a.Seq())
	}
}

func TestSenderStreamsLiveJournal(t *testing.T) {
	dir := t.TempDir()
	j := seedJournal(t, dir, 5)
	defer j.Close()
	f := newFakeStandby(t, 1)

	snd, err := NewSender(Config{
		Journal: j, Addr: f.addr(), ServerID: "svc", Epoch: 1,
		Poll: time.Millisecond, BatchMax: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := runSender(snd)
	waitCaught(t, snd)

	// Records appended while the stream is live follow it out.
	if err := j.AppendReport("obj1", &wire.CSIReport{RoundID: 99, APID: "ap2"}); err != nil {
		t.Fatal(err)
	}
	waitCaught(t, snd)

	snd.Close()
	if err := <-done; !errors.Is(err, ErrSenderClosed) {
		t.Errorf("Run = %v, want ErrSenderClosed", err)
	}
	checkMirrors(t, f, dir)
}

func TestSenderResumesAfterDroppedLink(t *testing.T) {
	dir := t.TempDir()
	j := seedJournal(t, dir, 20)
	defer j.Close()
	f := newFakeStandby(t, 1)
	f.dropAfter = 1 // every connection dies after one acked batch

	snd, err := NewSender(Config{
		Journal: j, Addr: f.addr(), ServerID: "svc", Epoch: 1,
		Poll: time.Millisecond, BatchMax: 4, Seed: 42,
		Sleep: func(time.Duration) {}, // collapse reconnect backoff
	})
	if err != nil {
		t.Fatal(err)
	}
	done := runSender(snd)
	waitCaught(t, snd)
	snd.Close()
	<-done

	if f.helloCount() < 2 {
		t.Errorf("expected multiple sessions, got %d hellos", f.helloCount())
	}
	checkMirrors(t, f, dir) // exactly-once despite re-sent tails
}

func TestSenderFencedIsTerminal(t *testing.T) {
	dir := t.TempDir()
	j := seedJournal(t, dir, 2)
	defer j.Close()
	f := newFakeStandby(t, 7) // standby runs a higher epoch
	f.fence = true

	snd, err := NewSender(Config{
		Journal: j, Addr: f.addr(), ServerID: "svc", Epoch: 3,
		Poll: time.Millisecond, Seed: 42, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-runSender(snd); !errors.Is(err, ErrFenced) {
		t.Errorf("Run = %v, want ErrFenced", err)
	}
	if f.helloCount() != 1 {
		t.Errorf("fenced sender retried: %d hellos", f.helloCount())
	}
}

func TestSenderDirModeDrain(t *testing.T) {
	dir := t.TempDir()
	j := seedJournal(t, dir, 8)
	if err := j.Close(); err != nil { // a dead primary's directory
		t.Fatal(err)
	}
	f := newFakeStandby(t, 1)

	snd, err := NewSender(Config{
		Dir: dir, Addr: f.addr(), ServerID: "svc", Epoch: 1,
		Poll: time.Millisecond, BatchMax: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := runSender(snd)
	waitCaught(t, snd)
	snd.Close()
	<-done
	checkMirrors(t, f, dir)
}

func TestSenderRecordTooLarge(t *testing.T) {
	dir := t.TempDir()
	j := seedJournal(t, dir, 1)
	defer j.Close()
	f := newFakeStandby(t, 1)

	snd, err := NewSender(Config{
		Journal: j, Addr: f.addr(), ServerID: "svc", Epoch: 1,
		Poll: time.Millisecond, BatchBytes: 8, Seed: 42, // meta alone exceeds this
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-runSender(snd); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("Run = %v, want ErrRecordTooLarge", err)
	}
}

// TestSenderRefusedDirIsTerminal: a directory every journal reader
// refuses — another format version, or corruption before its final
// segment — stops a dir-mode sender at once; retrying would handshake
// forever without moving a record.
func TestSenderRefusedDirIsTerminal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   error
	}{
		{"format version", func(t *testing.T, dir string) {
			rewriteSegment(t, dir, 1, func(buf []byte) {
				binary.BigEndian.PutUint32(buf[8:12], journal.FormatVersion-1)
				binary.BigEndian.PutUint32(buf[20:24], crc32.Checksum(buf[:20], crc32.MakeTable(crc32.Castagnoli)))
			})
		}, journal.ErrFormatVersion},
		{"corrupt interior", func(t *testing.T, dir string) {
			rewriteSegment(t, dir, 1, func(buf []byte) { buf[len(buf)-1] ^= 0x40 })
		}, journal.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := journal.Open(journal.Options{Dir: dir, NoSync: true, SegmentMaxBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendMeta(journal.Meta{ServerID: "svc", MaxNomadicSites: 4}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.AppendReport("obj1", &wire.CSIReport{RoundID: uint64(i + 1), APID: "ap1"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			f := newFakeStandby(t, 1)
			snd, err := NewSender(Config{
				Dir: dir, Addr: f.addr(), ServerID: "svc", Epoch: 1,
				Poll: time.Millisecond, Seed: 42, Sleep: func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer snd.Close()
			select {
			case err := <-runSender(snd):
				if !errors.Is(err, tc.want) {
					t.Errorf("Run = %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Run still retrying after 5 s (%d hellos)", f.helloCount())
			}
			if f.helloCount() != 1 {
				t.Errorf("refused directory retried: %d hellos", f.helloCount())
			}
		})
	}
}

// rewriteSegment applies edit to the segment file starting at firstSeq.
func rewriteSegment(t *testing.T, dir string, firstSeq uint64, edit func([]byte)) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", firstSeq))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(buf)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSenderConfigValidation(t *testing.T) {
	if _, err := NewSender(Config{Addr: "x"}); err == nil {
		t.Error("no source accepted")
	}
	if _, err := NewSender(Config{Journal: &journal.Journal{}, Dir: "d", Addr: "x"}); err == nil {
		t.Error("two sources accepted")
	}
	if _, err := NewSender(Config{Dir: "d"}); err == nil {
		t.Error("missing addr accepted")
	}
}
