package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
)

// Body encoding. Fields go in declaration order: integers fixed-width
// big-endian (int as int64), float64s as raw IEEE-754 bits, strings, byte
// slices and slices behind a u32 count. The encoding is canonical — a
// decoded frame re-encodes to the same bytes — so the journal can store a
// re-encoded report and get the frame the agent sent.
//
// Floats other than CSI must be finite, as the JSON the snapshots use
// requires; CSI carries arbitrary bits. A time is Unix seconds (i64),
// nanoseconds (u32, below 1e9) and the zone offset in seconds (i32),
// limited to what the snapshots' RFC 3339 JSON carries exactly: years
// 0–9999 and whole-minute offsets under a day.

// Minimum encoded sizes of the repeated elements, for bounding counts
// against the bytes left before allocating.
const (
	minSampleBytes = 4 + 8 + timeBytes + 8 + 4 // APID, Seq, CapturedAt, RSSI, CSI count
	minRecordBytes = 8 + 1 + 4                 // Seq, Kind, Payload count
	timeBytes      = 8 + 4 + 4
	complexBytes   = 16
)

// coderMode selects what a walk over a message body does.
type coderMode uint8

const (
	sizing   coderMode = iota // count the body's bytes
	encoding                  // append the body to buf
	decoding                  // fill the message from buf
)

// coder walks a message body field by field. Each message type has one
// walk, its code method, serving all three modes, so the encoder and the
// decoder cannot disagree on the layout. The first failure sticks: later
// fields decode as zero, and the frame reports the failure once. The
// coder passes by value, which keeps it off the heap across the interface
// call.
type coder struct {
	mode coderMode
	buf  []byte // encoding: the frame so far; decoding: the unread bytes
	n    int    // sizing: the body's length
	err  string
}

func (c *coder) fail(reason string) {
	if c.err == "" {
		c.err = reason
		c.buf = nil
	}
}

// take consumes n bytes while decoding, or fails and returns nil.
func (c *coder) take(n int) []byte {
	if n > len(c.buf) {
		c.fail(fmt.Sprintf("%d bytes wanted, %d left", n, len(c.buf)))
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

func (c *coder) u8(v *uint8) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		c.buf = append(c.buf, *v)
	case decoding:
		if b := c.take(1); b != nil {
			*v = b[0]
		}
	}
}

func (c *coder) u32(v *uint32) {
	switch c.mode {
	case sizing:
		c.n += 4
	case encoding:
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	case decoding:
		if b := c.take(4); b != nil {
			*v = binary.BigEndian.Uint32(b)
		}
	}
}

func (c *coder) u64(v *uint64) {
	switch c.mode {
	case sizing:
		c.n += 8
	case encoding:
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	case decoding:
		if b := c.take(8); b != nil {
			*v = binary.BigEndian.Uint64(b)
		}
	}
}

func (c *coder) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.mode == decoding {
		if b > 1 {
			c.fail(fmt.Sprintf("bool byte %d", b))
		}
		*v = b == 1
	}
}

func (c *coder) int(v *int) {
	u := uint64(int64(*v))
	c.u64(&u)
	if c.mode == decoding {
		*v = int(int64(u))
	}
}

// float codes a finite float64.
func (c *coder) float(v *float64) {
	u := math.Float64bits(*v)
	c.u64(&u)
	if c.mode == decoding {
		*v = math.Float64frombits(u)
	}
	if math.IsNaN(*v) || math.IsInf(*v, 0) {
		c.fail(fmt.Sprintf("non-finite value %v", *v))
	}
}

func (c *coder) pos(v *geom.Vec) {
	c.float(&v.X)
	c.float(&v.Y)
}

// count codes a slice length: n itself when sizing or encoding, the
// decoded count when decoding, checked against the bytes left for
// elements of at least size bytes each. A count past u32 cannot fit a
// frame, so AppendMessage's MaxFrameBytes check refuses it before anything
// is written.
func (c *coder) count(n, size int) int {
	v := uint32(n)
	c.u32(&v)
	if c.mode != decoding {
		return n
	}
	if uint64(v)*uint64(size) > uint64(len(c.buf)) {
		c.fail(fmt.Sprintf("count %d runs past the frame", v))
		return 0
	}
	return int(v)
}

func (c *coder) str(s *string) { c.strLike(s, "") }

// strLike codes a string; a decoded string equal to like shares its
// memory. Every sample of a batch repeats the batch's AP ID.
func (c *coder) strLike(s *string, like string) {
	n := c.count(len(*s), 1)
	switch c.mode {
	case sizing:
		c.n += n
	case encoding:
		c.buf = append(c.buf, *s...)
	case decoding:
		*s = like
		if b := c.take(n); string(b) != like {
			*s = string(b)
		}
	}
}

// bytes codes a byte slice, decoded into fresh memory (nil when empty) so
// a message never aliases the caller's buffer.
func (c *coder) bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	switch c.mode {
	case sizing:
		c.n += n
	case encoding:
		c.buf = append(c.buf, *p...)
	case decoding:
		if b := c.take(n); len(b) > 0 {
			*p = append([]byte(nil), b...)
		}
	}
}

// vec codes a CSI vector as raw bits, NaN and infinities included.
func (c *coder) vec(v *csi.Vector) {
	n := c.count(len(*v), complexBytes)
	switch c.mode {
	case sizing:
		c.n += complexBytes * n
	case encoding:
		for _, x := range *v {
			c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(real(x)))
			c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(imag(x)))
		}
	case decoding:
		if b := c.take(complexBytes * n); len(b) > 0 {
			*v = make(csi.Vector, n)
			for i := range *v {
				re := math.Float64frombits(binary.BigEndian.Uint64(b[16*i:]))
				im := math.Float64frombits(binary.BigEndian.Uint64(b[16*i+8:]))
				(*v)[i] = complex(re, im)
			}
		}
	}
}

func (c *coder) time(t *time.Time) {
	_, off := t.Zone()
	sec, nsec, zone := uint64(t.Unix()), uint32(t.Nanosecond()), uint32(int32(off))
	c.u64(&sec)
	c.u32(&nsec)
	c.u32(&zone)
	if c.mode == decoding {
		if nsec >= 1e9 {
			c.fail(fmt.Sprintf("%d nanoseconds", nsec))
			return
		}
		off = int(int32(zone))
		*t = time.Unix(int64(sec), int64(nsec)).UTC()
		if off != 0 {
			*t = t.In(time.FixedZone("", off))
		}
	}
	if y := t.Year(); y < 0 || y > 9999 {
		c.fail(fmt.Sprintf("time in year %d", y))
	}
	if off%60 != 0 || off <= -86400 || off >= 86400 {
		c.fail(fmt.Sprintf("zone offset %ds", off))
	}
}

// Per-message bodies.

func (m *Hello) code(c coder) coder {
	c.str((*string)(&m.Role))
	c.str(&m.ID)
	c.pos(&m.Pos)
	c.int(&m.SiteIndex)
	return c
}

func (m *HelloAck) code(c coder) coder {
	c.bool(&m.OK)
	c.str(&m.ServerID)
	c.str(&m.Detail)
	return c
}

func (m *RoundStart) code(c coder) coder {
	c.u64(&m.RoundID)
	c.str(&m.ObjectID)
	c.int(&m.Packets)
	return c
}

func (m *ProbeFrame) code(c coder) coder {
	c.u64(&m.RoundID)
	c.str(&m.To)
	c.u64(&m.Seq)
	c.float(&m.RSSI)
	c.vec(&m.CSI)
	return c
}

func (m *PositionUpdate) code(c coder) coder {
	c.str(&m.APID)
	c.int(&m.SiteIndex)
	c.pos(&m.Pos)
	return c
}

func (m *CSIReport) code(c coder) coder {
	c.u64(&m.RoundID)
	c.str(&m.APID)
	c.int(&m.SiteIndex)
	c.pos(&m.Pos)
	c.bool(&m.Nomadic)
	c.str(&m.Batch.APID)
	c.int(&m.Batch.SiteIndex)
	if n := c.count(len(m.Batch.Samples), minSampleBytes); c.mode == decoding && n > 0 {
		m.Batch.Samples = make([]csi.Sample, n)
	}
	for i := range m.Batch.Samples {
		s := &m.Batch.Samples[i]
		c.strLike(&s.APID, m.Batch.APID)
		c.u64(&s.Seq)
		c.time(&s.CapturedAt)
		c.float(&s.RSSI)
		c.vec(&s.CSI)
	}
	return c
}

func (m *ReportAck) code(c coder) coder {
	c.u64(&m.RoundID)
	c.str(&m.APID)
	c.int(&m.SiteIndex)
	return c
}

func (m *Estimate) code(c coder) coder {
	c.u64(&m.RoundID)
	c.str(&m.ObjectID)
	c.pos(&m.Pos)
	c.float(&m.RelaxCost)
	c.int(&m.NumAnchors)
	return c
}

func (m *ErrorMsg) code(c coder) coder {
	c.str(&m.Detail)
	return c
}

func (m *ReplHello) code(c coder) coder {
	c.str(&m.ServerID)
	c.u64(&m.Epoch)
	return c
}

func (m *ReplBatch) code(c coder) coder {
	c.u64(&m.Epoch)
	if n := c.count(len(m.Records), minRecordBytes); c.mode == decoding && n > 0 {
		m.Records = make([]ReplRecord, n)
	}
	for i := range m.Records {
		r := &m.Records[i]
		c.u64(&r.Seq)
		c.u8(&r.Kind)
		c.bytes(&r.Payload)
	}
	return c
}

func (m *ReplAck) code(c coder) coder {
	c.bool(&m.OK)
	c.u64(&m.Epoch)
	c.u64(&m.Seq)
	c.str(&m.Detail)
	return c
}

func (m *Promote) code(c coder) coder {
	c.u64(&m.Epoch)
	return c
}
