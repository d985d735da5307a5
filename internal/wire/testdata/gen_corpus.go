//go:build ignore

// gen_corpus.go regenerates the checked-in seed corpora for
// FuzzReadMessage and FuzzCorruptedFrames. Run from the package
// directory:
//
//	go run testdata/gen_corpus.go
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/wire"
)

// rawFrame frames a hand-built body under a type tag with a valid CRC.
func rawFrame(tag byte, body []byte) []byte {
	out := make([]byte, 9, 9+len(body))
	out[8] = tag
	out = append(out, body...)
	binary.BigEndian.PutUint32(out[:4], uint32(len(out)-4))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(out[8:], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

func encode(msg wire.Message) []byte {
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, msg); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func main() {
	seeds := [][]byte{
		encode(&wire.Hello{Role: wire.RoleAP, ID: "ap1", Pos: geom.V(1, 2), SiteIndex: 3}),
		encode(&wire.HelloAck{OK: true, ServerID: "srv"}),
		encode(&wire.RoundStart{RoundID: 7, ObjectID: "obj", Packets: 25}),
		encode(&wire.ProbeFrame{RoundID: 7, To: "ap1", Seq: 9, RSSI: -40, CSI: csi.Vector{1 + 2i, 3 - 4i}}),
		encode(&wire.PositionUpdate{APID: "nomad", SiteIndex: 2, Pos: geom.V(5, 6)}),
		encode(&wire.CSIReport{RoundID: 7, APID: "ap1", Nomadic: true, Batch: csi.Batch{
			APID:    "ap1",
			Samples: []csi.Sample{{APID: "ap1", Seq: 0, CSI: csi.Vector{1, 2i}}},
		}}),
		encode(&wire.Estimate{RoundID: 7, ObjectID: "obj", Pos: geom.V(3, 4), RelaxCost: 0.5, NumAnchors: 6}),
		encode(&wire.ErrorMsg{Detail: "boom"}),
		encode(&wire.ReplHello{ServerID: "srv", Epoch: 3}),
		encode(&wire.ReplBatch{Epoch: 3, Records: []wire.ReplRecord{{Seq: 9, Kind: 4, Payload: []byte{0xde, 0xad}}}}),
		encode(&wire.ReplAck{OK: false, Epoch: 4, Seq: 9, Detail: "fenced: stale epoch"}),
		encode(&wire.Promote{Epoch: 4}),
		encode(&wire.ReportAck{RoundID: 7, APID: "ap1", SiteIndex: 2}),
		{0, 0},
		{0xff, 0xff, 0xff, 0xff},
		badCRC(encode(&wire.HelloAck{OK: true, ServerID: "srv"})),
		rawFrame(200, nil), // unknown tag, valid CRC
		rawFrame(2, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}),                       // HelloAck with a bad bool
		rawFrame(9, []byte{0, 0, 0, 0, 0}),                                   // ErrorMsg with a trailing byte
		rawFrame(11, []byte{0, 0, 0, 0, 0, 0, 0, 3, 0xff, 0xff, 0xff, 0xff}), // ReplBatch, oversized count
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadMessage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d corpus entries to %s\n", len(seeds), dir)

	// FuzzCorruptedFrames takes (data, seed, flips) triples.
	type corrupted struct {
		data  []byte
		seed  int64
		flips int
	}
	oversized := encode(&wire.Hello{Role: wire.RoleAP})
	binary.BigEndian.PutUint32(oversized, 0xffffffff)
	corruptSeeds := []corrupted{
		{encode(&wire.ReportAck{RoundID: 7, APID: "ap1", SiteIndex: 2}), 42, 3},
		{encode(&wire.RoundStart{RoundID: 7}), -9000, 15},
		{oversized, 1, 0},
		{encode(&wire.ReplHello{ServerID: "srv", Epoch: 3}), 11, 2},
		{encode(&wire.ReplBatch{Epoch: 3, Records: []wire.ReplRecord{{Seq: 9, Kind: 4, Payload: []byte{0xde, 0xad}}}}), 12, 5},
		{encode(&wire.ReplAck{OK: false, Epoch: 4, Seq: 9, Detail: "fenced: stale epoch"}), 13, 3},
		{encode(&wire.Promote{Epoch: 4}), 14, 1},
	}
	dir = filepath.Join("testdata", "fuzz", "FuzzCorruptedFrames")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, c := range corruptSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint64(%d)\nint(%d)\n", c.data, c.seed, c.flips)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i+1))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d corpus entries to %s\n", len(corruptSeeds), dir)
}

// badCRC flips one bit of a frame's checksum.
func badCRC(frame []byte) []byte {
	frame[4] ^= 1
	return frame
}
