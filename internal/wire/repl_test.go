package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// replRNG derives a deterministic RNG for the round-trip property runs.
func replRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randBytes draws n pseudo-random payload bytes (full 0..255 range:
// payloads are binary).
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// randString draws n pseudo-random printable-ASCII characters.
func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + rng.Intn('~'-' '+1))
	}
	return string(b)
}

// TestReplMessagesRoundTrip is the encode/decode property test for the
// four replication messages: many pseudo-random instances, each written
// through the real framing and read back, must compare equal field by
// field (payload bytes included).
func TestReplMessagesRoundTrip(t *testing.T) {
	rng := replRNG(0x5eed)
	roundTrip := func(t *testing.T, msg Message) Message {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if got.Type() != msg.Type() {
			t.Fatalf("type changed: %q → %q", msg.Type(), got.Type())
		}
		if !sameMessage(msg, got) {
			t.Fatalf("round trip changed %T:\n%#v\n%#v", msg, msg, got)
		}
		return got
	}

	for trial := 0; trial < 200; trial++ {
		hello := &ReplHello{
			ServerID: randString(rng, rng.Intn(12)),
			Epoch:    rng.Uint64(),
		}
		roundTrip(t, hello)

		recs := make([]ReplRecord, rng.Intn(5))
		seq := rng.Uint64() % (1 << 40)
		for i := range recs {
			recs[i] = ReplRecord{
				Seq:     seq + uint64(i),
				Kind:    uint8(rng.Intn(256)),
				Payload: randBytes(rng, rng.Intn(64)),
			}
		}
		batch := roundTrip(t, &ReplBatch{Epoch: rng.Uint64(), Records: recs}).(*ReplBatch)
		if len(batch.Records) != len(recs) {
			t.Fatalf("batch record count changed: %d → %d", len(recs), len(batch.Records))
		}
		for i, rec := range batch.Records {
			if !bytes.Equal(rec.Payload, recs[i].Payload) {
				t.Fatalf("record %d payload changed: %x → %x", i, recs[i].Payload, rec.Payload)
			}
		}

		roundTrip(t, &ReplAck{
			OK:     rng.Intn(2) == 0,
			Epoch:  rng.Uint64(),
			Seq:    rng.Uint64(),
			Detail: randString(rng, rng.Intn(8)),
		})
		roundTrip(t, &Promote{Epoch: rng.Uint64()})
	}
}

// TestReplRecordPayloadBinarySafe pins that arbitrary binary record
// payloads — including invalid UTF-8 — survive the codec intact.
func TestReplRecordPayloadBinarySafe(t *testing.T) {
	payload := []byte{0x00, 0xff, 0xfe, 0x80, 0x7f, '"', '\\', '\n'}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &ReplBatch{Epoch: 1, Records: []ReplRecord{{Seq: 1, Kind: 4, Payload: payload}}}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*ReplBatch).Records[0].Payload
	if !bytes.Equal(got, payload) {
		t.Fatalf("binary payload mangled: %x → %x", payload, got)
	}
}
