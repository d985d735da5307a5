package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
)

func roundtrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if got.Type() != msg.Type() {
		t.Fatalf("type = %q, want %q", got.Type(), msg.Type())
	}
	return got
}

func TestHelloRoundtrip(t *testing.T) {
	in := &Hello{Role: RoleAP, ID: "ap1", Pos: geom.V(3, 4), SiteIndex: 2}
	got, ok := roundtrip(t, in).(*Hello)
	if !ok {
		t.Fatal("wrong concrete type")
	}
	if *got != *in {
		t.Errorf("got %+v, want %+v", got, in)
	}
}

func TestHelloAckRoundtrip(t *testing.T) {
	in := &HelloAck{OK: false, ServerID: "srv", Detail: "duplicate id"}
	got := roundtrip(t, in).(*HelloAck)
	if *got != *in {
		t.Errorf("got %+v", got)
	}
}

func TestRoundStartRoundtrip(t *testing.T) {
	in := &RoundStart{RoundID: 7, ObjectID: "obj", Packets: 25}
	got := roundtrip(t, in).(*RoundStart)
	if *got != *in {
		t.Errorf("got %+v", got)
	}
}

func TestProbeFrameRoundtrip(t *testing.T) {
	in := &ProbeFrame{
		RoundID: 3,
		To:      "ap2",
		Seq:     11,
		RSSI:    -47.5,
		CSI:     csi.Vector{1 + 2i, -0.5i, 3},
	}
	got := roundtrip(t, in).(*ProbeFrame)
	if got.To != in.To || got.Seq != in.Seq || got.RSSI != in.RSSI || got.RoundID != in.RoundID {
		t.Errorf("meta mismatch: %+v", got)
	}
	if len(got.CSI) != len(in.CSI) {
		t.Fatalf("CSI len = %d", len(got.CSI))
	}
	for i := range in.CSI {
		if got.CSI[i] != in.CSI[i] {
			t.Errorf("CSI[%d] = %v, want %v", i, got.CSI[i], in.CSI[i])
		}
	}
}

func TestPositionUpdateRoundtrip(t *testing.T) {
	in := &PositionUpdate{APID: "ap1", SiteIndex: 3, Pos: geom.V(6.5, 2.25)}
	got := roundtrip(t, in).(*PositionUpdate)
	if *got != *in {
		t.Errorf("got %+v", got)
	}
}

func TestCSIReportRoundtrip(t *testing.T) {
	in := &CSIReport{
		RoundID:   9,
		APID:      "ap3",
		SiteIndex: 1,
		Pos:       geom.V(1, 2),
		Nomadic:   true,
		Batch: csi.Batch{
			APID:      "ap3",
			SiteIndex: 1,
			Samples: []csi.Sample{
				{APID: "ap3", Seq: 0, CapturedAt: time.Unix(100, 0).UTC(), RSSI: -50, CSI: csi.Vector{2i, 1}},
				{APID: "ap3", Seq: 1, CapturedAt: time.Unix(100, 1000000).UTC(), RSSI: -51, CSI: csi.Vector{1, -1}},
			},
		},
	}
	got := roundtrip(t, in).(*CSIReport)
	if got.APID != "ap3" || !got.Nomadic || got.SiteIndex != 1 || got.RoundID != 9 {
		t.Errorf("meta mismatch: %+v", got)
	}
	if len(got.Batch.Samples) != 2 {
		t.Fatalf("samples = %d", len(got.Batch.Samples))
	}
	if got.Batch.Samples[0].CSI[0] != 2i {
		t.Errorf("sample CSI lost: %v", got.Batch.Samples[0].CSI)
	}
	if !got.Batch.Samples[1].CapturedAt.Equal(in.Batch.Samples[1].CapturedAt) {
		t.Error("timestamps lost")
	}
}

func TestEstimateAndErrorRoundtrip(t *testing.T) {
	est := &Estimate{RoundID: 1, ObjectID: "o", Pos: geom.V(4, 4), RelaxCost: 0.5, NumAnchors: 7}
	got := roundtrip(t, est).(*Estimate)
	if *got != *est {
		t.Errorf("got %+v", got)
	}
	em := &ErrorMsg{Detail: "boom"}
	got2 := roundtrip(t, em).(*ErrorMsg)
	if *got2 != *em {
		t.Errorf("got %+v", got2)
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{Role: RoleObject, ID: "obj"},
		&RoundStart{RoundID: 1, ObjectID: "obj", Packets: 5},
		&ErrorMsg{Detail: "x"},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Errorf("message %d type = %q", i, got.Type())
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream err = %v, want io.EOF", err)
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("truncated header accepted")
	}
	// Oversized frame claim.
	var big [4]byte
	binary.BigEndian.PutUint32(big[:], MaxFrameBytes+1)
	if _, err := ReadMessage(bytes.NewReader(big[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize err = %v", err)
	}
	// Truncated body.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	if _, err := ReadMessage(bytes.NewReader(append(hdr[:], 1, 2, 3))); err == nil {
		t.Error("truncated body accepted")
	}
	// Whole frames that fail to decode: a bad CRC, an unknown tag with a
	// valid CRC, a bad bool, trailing bytes, a truncated body, an
	// oversized count.
	for _, b := range brokenFrames(t) {
		if _, err := ReadMessage(bytes.NewReader(b.data)); !errors.Is(err, b.want) {
			t.Errorf("%s: err = %v, want %v", b.name, err, b.want)
		}
	}
	// A decode failure consumes its frame whole: the next frame on the
	// stream still reads.
	var stream bytes.Buffer
	stream.Write(brokenFrames(t)[0].data)
	if err := WriteMessage(&stream, &ErrorMsg{Detail: "next"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(&stream); !IsDecodeError(err) {
		t.Fatalf("broken frame: err = %v, want a decode error", err)
	}
	if msg, err := ReadMessage(&stream); err != nil || msg.(*ErrorMsg).Detail != "next" {
		t.Errorf("frame after a broken one: %v, %v", msg, err)
	}
}

func TestWriteLargeCSIBatchWithinLimit(t *testing.T) {
	// A realistic burst (1000 packets × 30 subcarriers) must fit.
	samples := make([]csi.Sample, 1000)
	for i := range samples {
		v := make(csi.Vector, 30)
		for k := range v {
			v[k] = complex(float64(i), float64(k))
		}
		samples[i] = csi.Sample{Seq: uint64(i), CSI: v}
	}
	msg := &CSIReport{APID: "ap1", Batch: csi.Batch{APID: "ap1", Samples: samples}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatalf("large batch: %v", err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.(*CSIReport).Batch.Samples) != 1000 {
		t.Error("samples lost")
	}
}

func TestReadMessageRandomGarbageNeverPanics(t *testing.T) {
	// Robustness: arbitrary byte streams must produce errors, not panics.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		// Cap any claimed length so ReadMessage does not try to allocate
		// gigabytes from a hostile header; real deployments get this from
		// MaxFrameBytes.
		if n >= 4 {
			buf[0] = 0
			buf[1] = 0
		}
		_, err := ReadMessage(bytes.NewReader(buf))
		if err == nil && n > 8 {
			// Vanishingly unlikely: random bytes forming a valid frame.
			t.Logf("trial %d: random bytes decoded as a message", trial)
		}
	}
}

func TestWriteReadManyRandomVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	var buf bytes.Buffer
	const n = 200
	for i := 0; i < n; i++ {
		v := make(csi.Vector, rng.Intn(40))
		for k := range v {
			v[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		msg := &ProbeFrame{RoundID: uint64(i), To: "ap", Seq: uint64(i), CSI: v}
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		pf, ok := msg.(*ProbeFrame)
		if !ok || pf.RoundID != uint64(i) {
			t.Fatalf("message %d corrupted: %+v", i, msg)
		}
	}
}

// TestDecodeMessage: the in-memory twin of ReadMessage accepts exactly
// one whole frame and rejects everything else — short headers, truncated
// bodies, and trailing bytes (a stream decoder would absorb the latter;
// the journal's stored payloads must not).
func TestDecodeMessage(t *testing.T) {
	var buf bytes.Buffer
	want := &CSIReport{RoundID: 9, APID: "ap1"}
	if err := WriteMessage(&buf, want); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	msg, err := DecodeMessage(frame)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	got, ok := msg.(*CSIReport)
	if !ok || got.RoundID != want.RoundID || got.APID != want.APID {
		t.Errorf("decoded %#v, want %#v", msg, want)
	}

	for name, b := range map[string][]byte{
		"short header":   frame[:3],
		"truncated body": frame[:len(frame)-1],
		"trailing bytes": append(append([]byte(nil), frame...), 'x'),
	} {
		if _, err := DecodeMessage(b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}

	// A length prefix beyond the frame cap is the size error, not a
	// decode error, matching ReadMessage.
	huge := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(huge[:4], MaxFrameBytes+1)
	if _, err := DecodeMessage(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized prefix: err = %v, want ErrFrameTooLarge", err)
	}
}
