package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
)

// rawFrame frames a hand-built body under a type tag with a valid CRC,
// for inputs the encoder would never produce.
func rawFrame(tag byte, body []byte) []byte {
	out := make([]byte, frameHeaderSize, frameHeaderSize+len(body))
	out[8] = tag
	out = append(out, body...)
	binary.BigEndian.PutUint32(out[:4], uint32(len(out)-4))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(out[8:], castagnoli))
	return out
}

// sameMessage reports whether a and b carry the same values: floats by
// their bits, a nil slice equal to an empty one, times by Equal.
func sameMessage(a, b Message) bool {
	var ca, cb bytes.Buffer
	canon(&ca, reflect.ValueOf(a))
	canon(&cb, reflect.ValueOf(b))
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// canon writes v's values in a form where exactly the differences
// sameMessage cares about show.
func canon(w *bytes.Buffer, v reflect.Value) {
	var buf [8]byte
	u64 := func(x uint64) {
		binary.BigEndian.PutUint64(buf[:], x)
		w.Write(buf[:])
	}
	if t, ok := v.Interface().(time.Time); ok {
		u64(uint64(t.Unix()))
		u64(uint64(t.Nanosecond()))
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		w.WriteString(v.Elem().Type().String())
		canon(w, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canon(w, v.Field(i))
		}
	case reflect.Slice:
		u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			canon(w, v.Index(i))
		}
	case reflect.String:
		u64(uint64(v.Len()))
		w.WriteString(v.String())
	case reflect.Float64:
		u64(math.Float64bits(v.Float()))
	case reflect.Complex128:
		u64(math.Float64bits(real(v.Complex())))
		u64(math.Float64bits(imag(v.Complex())))
	case reflect.Int:
		u64(uint64(v.Int()))
	case reflect.Uint8, reflect.Uint64:
		u64(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
	default:
		panic("canon: unsupported kind " + v.Kind().String())
	}
}

// msgGen draws random instances of every message type. Strings and
// payloads take arbitrary bytes; finite floats span many magnitudes and
// include -0; CSI takes arbitrary bits, NaN payloads included; times take
// random instants and whole-minute zone offsets.
type msgGen struct{ rng *rand.Rand }

func (g msgGen) str() string { return string(g.bytes()) }

func (g msgGen) bytes() []byte {
	n := g.rng.Intn(12)
	if n == 0 && g.rng.Intn(2) == 0 {
		return nil
	}
	b := make([]byte, n)
	g.rng.Read(b)
	return b
}

func (g msgGen) float() float64 {
	switch g.rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.SmallestNonzeroFloat64
	case 2:
		return -math.MaxFloat64
	default:
		return g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(40)-20))
	}
}

func (g msgGen) pos() geom.Vec { return geom.V(g.float(), g.float()) }

func (g msgGen) int() int { return int(g.rng.Uint64()) }

func (g msgGen) vec() csi.Vector {
	n := g.rng.Intn(6)
	if n == 0 && g.rng.Intn(2) == 0 {
		return nil
	}
	v := make(csi.Vector, n)
	for i := range v {
		v[i] = complex(math.Float64frombits(g.rng.Uint64()), g.float())
	}
	return v
}

func (g msgGen) time() time.Time {
	// Years 1–9999, a day clear of each end so that any offset keeps the
	// local year in range.
	const first, last = -62135596800 + 86400, 253402300799 - 86400
	t := time.Unix(first+g.rng.Int63n(last-first), g.rng.Int63n(1e9))
	if g.rng.Intn(2) == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("X", 60*(g.rng.Intn(2*1439+1)-1439)))
}

func (g msgGen) message(t MsgType) Message {
	switch t {
	case TypeHello:
		return &Hello{Role: Role(g.str()), ID: g.str(), Pos: g.pos(), SiteIndex: g.int()}
	case TypeHelloAck:
		return &HelloAck{OK: g.rng.Intn(2) == 0, ServerID: g.str(), Detail: g.str()}
	case TypeRoundStart:
		return &RoundStart{RoundID: g.rng.Uint64(), ObjectID: g.str(), Packets: g.int()}
	case TypeProbeFrame:
		return &ProbeFrame{RoundID: g.rng.Uint64(), To: g.str(), Seq: g.rng.Uint64(), RSSI: g.float(), CSI: g.vec()}
	case TypePositionUpdate:
		return &PositionUpdate{APID: g.str(), SiteIndex: g.int(), Pos: g.pos()}
	case TypeCSIReport:
		m := &CSIReport{RoundID: g.rng.Uint64(), APID: g.str(), SiteIndex: g.int(), Pos: g.pos(),
			Nomadic: g.rng.Intn(2) == 0, Batch: csi.Batch{APID: g.str(), SiteIndex: g.int()}}
		for i := g.rng.Intn(4); i > 0; i-- {
			m.Batch.Samples = append(m.Batch.Samples, csi.Sample{
				APID: g.str(), Seq: g.rng.Uint64(), CapturedAt: g.time(), RSSI: g.float(), CSI: g.vec()})
		}
		return m
	case TypeReportAck:
		return &ReportAck{RoundID: g.rng.Uint64(), APID: g.str(), SiteIndex: g.int()}
	case TypeEstimate:
		return &Estimate{RoundID: g.rng.Uint64(), ObjectID: g.str(), Pos: g.pos(), RelaxCost: g.float(), NumAnchors: g.int()}
	case TypeError:
		return &ErrorMsg{Detail: g.str()}
	case TypeReplHello:
		return &ReplHello{ServerID: g.str(), Epoch: g.rng.Uint64()}
	case TypeReplBatch:
		m := &ReplBatch{Epoch: g.rng.Uint64()}
		for i := g.rng.Intn(4); i > 0; i-- {
			m.Records = append(m.Records, ReplRecord{Seq: g.rng.Uint64(), Kind: uint8(g.rng.Intn(256)), Payload: g.bytes()})
		}
		return m
	case TypeReplAck:
		return &ReplAck{OK: g.rng.Intn(2) == 0, Epoch: g.rng.Uint64(), Seq: g.rng.Uint64(), Detail: g.str()}
	case TypePromote:
		return &Promote{Epoch: g.rng.Uint64()}
	}
	panic("msgGen: unknown type " + string(t))
}

// TestCodecRoundTrip is the codec's property test over all 13 message
// types: decode(encode(m)) equals m, and encode(decode(f)) == f.
func TestCodecRoundTrip(t *testing.T) {
	g := msgGen{rand.New(rand.NewSource(17))}
	for trial := 0; trial < 300; trial++ {
		for _, typ := range msgTypes[1:] {
			m := g.message(typ)
			frame, err := encodeFrame(m)
			if err != nil {
				t.Fatalf("encode %s: %v", typ, err)
			}
			got, err := DecodeMessage(frame)
			if err != nil {
				t.Fatalf("decode %s: %v", typ, err)
			}
			if !sameMessage(m, got) {
				t.Fatalf("%s changed in a round trip:\n%#v\n%#v", typ, m, got)
			}
			again, err := encodeFrame(got)
			if err != nil {
				t.Fatalf("re-encode %s: %v", typ, err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("%s: encode(decode(f)) != f", typ)
			}
		}
	}
}

// TestCodecRefusesNonFinite: NaN and ±Inf in a position, an RSSI or a
// relaxation cost fail to encode, and a frame carrying one fails to
// decode; CSI carries them.
func TestCodecRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []Message{
			&Hello{Pos: geom.V(bad, 0)},
			&PositionUpdate{Pos: geom.V(0, bad)},
			&ProbeFrame{RSSI: bad},
			&Estimate{RelaxCost: bad},
			&CSIReport{Batch: csi.Batch{Samples: []csi.Sample{{RSSI: bad}}}},
		} {
			if err := WriteMessage(&bytes.Buffer{}, m); err == nil {
				t.Errorf("%s with %v encoded", m.Type(), bad)
			}
		}
		var body []byte
		body = binary.BigEndian.AppendUint64(body, 7)
		body = binary.BigEndian.AppendUint32(body, 0)
		body = binary.BigEndian.AppendUint64(body, math.Float64bits(bad))
		for i := 0; i < 3; i++ { // Y, RelaxCost, NumAnchors
			body = binary.BigEndian.AppendUint64(body, 0)
		}
		if _, err := DecodeMessage(rawFrame(8, body)); !errors.Is(err, ErrBadMessage) {
			t.Errorf("estimate at x=%v: err = %v, want ErrBadMessage", bad, err)
		}
		if _, err := DecodeMessage(encode(t, &ProbeFrame{CSI: csi.Vector{complex(bad, bad)}})); err != nil {
			t.Errorf("CSI %v refused: %v", bad, err)
		}
	}
	for _, when := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, 0).In(time.FixedZone("", 37)),
		time.Unix(0, 0).In(time.FixedZone("", 24*3600)),
	} {
		m := &CSIReport{Batch: csi.Batch{Samples: []csi.Sample{{CapturedAt: when}}}}
		if err := WriteMessage(&bytes.Buffer{}, m); err == nil {
			t.Errorf("time %v encoded", when)
		}
	}
}

// TestCorruptedReportRefused flips one byte of a 25-packet report frame
// after its length prefix, 20,000 times, the way the chaos Corrupt fault
// does: no flip may decode, and every failure is a decode error, so the
// session survives it.
func TestCorruptedReportRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rep := &CSIReport{RoundID: 4, APID: "ap2", SiteIndex: 1, Pos: geom.V(3, 4), Nomadic: true,
		Batch: csi.Batch{APID: "ap2", SiteIndex: 1}}
	for i := 0; i < 25; i++ {
		v := make(csi.Vector, csi.DefaultNumSubcarriers)
		for k := range v {
			v[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		rep.Batch.Samples = append(rep.Batch.Samples, csi.Sample{APID: "ap2", Seq: uint64(i),
			CapturedAt: time.Unix(1700000000, int64(i)*1e6).UTC(), RSSI: -50 + rng.NormFloat64(), CSI: v})
	}
	frame := encode(t, rep)
	corrupted := make([]byte, len(frame))
	decoded := 0
	for trial := 0; trial < 20000; trial++ {
		copy(corrupted, frame)
		corrupted[4+rng.Intn(len(frame)-4)] ^= byte(1 + rng.Intn(255))
		_, err := DecodeMessage(corrupted)
		switch {
		case err == nil:
			decoded++
		case !IsDecodeError(err):
			t.Fatalf("flip %d: %v is not a decode error", trial, err)
		}
	}
	if decoded != 0 {
		t.Errorf("%d of 20000 corrupted frames decoded", decoded)
	}
}
