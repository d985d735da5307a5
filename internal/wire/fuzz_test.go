package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/nomloc/nomloc/internal/chaos"
	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
)

// encode frames a valid message for the seed corpus.
func encode(tb testing.TB, msg Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// validSeeds is one valid message per type, so the fuzzer starts from
// every body layout.
func validSeeds() []Message {
	return []Message{
		&Hello{Role: RoleAP, ID: "ap1", Pos: geom.V(1, 2), SiteIndex: 3},
		&HelloAck{OK: true, ServerID: "srv"},
		&RoundStart{RoundID: 7, ObjectID: "obj", Packets: 25},
		&ProbeFrame{RoundID: 7, To: "ap1", Seq: 9, RSSI: -40, CSI: csi.Vector{1 + 2i, 3 - 4i}},
		&PositionUpdate{APID: "nomad", SiteIndex: 2, Pos: geom.V(5, 6)},
		&CSIReport{RoundID: 7, APID: "ap1", Nomadic: true, Batch: csi.Batch{
			APID:    "ap1",
			Samples: []csi.Sample{{APID: "ap1", Seq: 0, CSI: csi.Vector{1, 2i}}},
		}},
		&Estimate{RoundID: 7, ObjectID: "obj", Pos: geom.V(3, 4), RelaxCost: 0.5, NumAnchors: 6},
		&ErrorMsg{Detail: "boom"},
		&ReplHello{ServerID: "srv", Epoch: 3},
		&ReplBatch{Epoch: 3, Records: []ReplRecord{{Seq: 9, Kind: 4, Payload: []byte{0, 1, 2}}}},
		&ReplAck{OK: true, Epoch: 3, Seq: 9},
		&Promote{Epoch: 4},
		&ReportAck{RoundID: 7, APID: "ap1", SiteIndex: 2},
	}
}

// brokenFrames are whole frames the decoder must refuse, each with the
// error it must give.
func brokenFrames(tb testing.TB) []struct {
	name string
	data []byte
	want error
} {
	valid := encode(tb, &HelloAck{OK: true, ServerID: "srv"})
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x20
	var oversized []byte // a ReplBatch claiming 2^32-1 records
	oversized = binary.BigEndian.AppendUint64(oversized, 3)
	oversized = binary.BigEndian.AppendUint32(oversized, 0xffffffff)
	return []struct {
		name string
		data []byte
		want error
	}{
		{"bad crc", badCRC, ErrBadMessage},
		{"unknown tag", rawFrame(200, nil), ErrUnknownType},
		{"tag zero", rawFrame(0, nil), ErrUnknownType},
		{"bad bool", rawFrame(2, append([]byte{2}, valid[10:]...)), ErrBadMessage},
		{"trailing bytes", rawFrame(2, append(valid[9:], 0)), ErrBadMessage},
		{"truncated body", rawFrame(2, valid[9:len(valid)-1]), ErrBadMessage},
		{"oversized count", rawFrame(11, oversized), ErrBadMessage},
		{"no type byte", []byte{0, 0, 0, 4, 0, 0, 0, 0}, ErrBadMessage},
	}
}

// FuzzReadMessage throws arbitrary byte streams at the frame decoder.
// Whatever the input, ReadMessage must never panic, and any frame it
// accepts must be canonical: re-encoding the message gives back exactly
// the bytes read.
func FuzzReadMessage(f *testing.F) {
	for _, msg := range validSeeds() {
		f.Add(encode(f, msg))
	}
	// Broken shapes: truncated header, truncated stream, oversized
	// length, then whole frames with a bad CRC, an unknown tag, a bad
	// bool, trailing bytes, a truncated body and an oversized count.
	f.Add([]byte{0, 0})
	f.Add(encode(f, &Hello{Role: RoleAP, ID: "ap1"})[:10])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, b := range brokenFrames(f) {
		f.Add(b.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			if msg != nil {
				t.Fatalf("error %v returned alongside message %v", err, msg)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		read := data[:4+binary.BigEndian.Uint32(data)]
		if !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("accepted frame is not canonical:\nread    %x\nwritten %x", read, buf.Bytes())
		}
	})
}

// FuzzCorruptedFrames replays the chaos layer's corruption against the
// decoder: a valid frame is byte-flipped by chaos.CorruptCopy (any
// offset, header included — harsher than the in-band Corrupt fault) and
// the result must decode to a message or fail with a TYPED error. A
// corrupted frame must never panic the decoder and never produce an
// untyped error: the server and agents branch on wire.IsDecodeError to
// decide whether a session survives, so an unclassified failure would
// drop sessions that could have lived.
func FuzzCorruptedFrames(f *testing.F) {
	seeds := [][]byte{
		encode(f, &Hello{Role: RoleAP, ID: "ap1", Pos: geom.V(1, 2), SiteIndex: 3}),
		encode(f, &RoundStart{RoundID: 7, ObjectID: "obj", Packets: 25}),
		encode(f, &ReportAck{RoundID: 7, APID: "ap1", SiteIndex: 2}),
		encode(f, &CSIReport{RoundID: 7, APID: "ap1", Nomadic: true, Batch: csi.Batch{
			APID:    "ap1",
			Samples: []csi.Sample{{APID: "ap1", Seq: 0, CSI: csi.Vector{1, 2i}}},
		}}),
		encode(f, &Estimate{RoundID: 7, ObjectID: "obj", Pos: geom.V(3, 4), RelaxCost: 0.5, NumAnchors: 6}),
		encode(f, &ReplHello{ServerID: "srv", Epoch: 3}),
		encode(f, &ReplBatch{Epoch: 3, Records: []ReplRecord{{Seq: 9, Kind: 4, Payload: []byte{0xde, 0xad}}}}),
		encode(f, &ReplAck{OK: false, Epoch: 4, Seq: 9, Detail: "fenced: stale epoch"}),
		encode(f, &Promote{Epoch: 4}),
	}
	for i, data := range seeds {
		f.Add(data, int64(i+1), 1)
		f.Add(data, int64(1e9+int64(i)), 4)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, flips int) {
		if flips < 0 {
			flips = -flips
		}
		corrupted := chaos.CorruptCopy(data, seed, flips%16)
		msg, err := ReadMessage(bytes.NewReader(corrupted))
		if err == nil {
			if msg == nil {
				t.Fatal("nil message with nil error")
			}
			return
		}
		switch {
		case IsDecodeError(err):
		case errors.Is(err, ErrFrameTooLarge):
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		default:
			t.Fatalf("corrupted frame produced an untyped error: %v", err)
		}
	})
}

// TestReadMessageSeedCorpus checks the seed shapes directly, so plain
// `go test` (no -fuzz) pins what each one must produce.
func TestReadMessageSeedCorpus(t *testing.T) {
	// A valid frame decodes; each mutilation fails with a typed error.
	valid := encode(t, &RoundStart{RoundID: 1, ObjectID: "obj", Packets: 1})
	if _, err := ReadMessage(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if _, err := ReadMessage(bytes.NewReader(valid[:3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: %v", err)
	}
	if _, err := ReadMessage(bytes.NewReader(valid[:len(valid)-2])); err == nil {
		t.Error("truncated body accepted")
	}
	if _, err := ReadMessage(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized length: %v", err)
	}
	for _, b := range brokenFrames(t) {
		if _, err := ReadMessage(bytes.NewReader(b.data)); !errors.Is(err, b.want) || !IsDecodeError(err) {
			t.Errorf("%s: err = %v, want %v", b.name, err, b.want)
		}
	}
}
