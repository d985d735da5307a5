// Package wire defines the NomLoc message protocol: length-prefixed,
// checksummed binary frames carrying typed messages between the object,
// the access points, and the localization server (the three tiers of the
// paper's Fig. 2 architecture).
//
// A frame is
//
//	[u32 len][u32 crc32c][u8 type][body]
//
// big-endian, where len counts every byte after itself and the CRC32C
// (Castagnoli, the journal's checksum) covers the type and the body.
// codec.go gives the body layout of each message.
//
// Topology is hub-and-spoke: every agent connects to the server, which
// routes probe frames from the object to APs and collects CSI reports.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/geom"
)

// MsgType tags a protocol message.
type MsgType string

// Protocol message types.
const (
	TypeHello          MsgType = "hello"
	TypeHelloAck       MsgType = "hello_ack"
	TypeProbeFrame     MsgType = "probe_frame"
	TypeRoundStart     MsgType = "round_start"
	TypePositionUpdate MsgType = "position_update"
	TypeCSIReport      MsgType = "csi_report"
	TypeReportAck      MsgType = "report_ack"
	TypeEstimate       MsgType = "estimate"
	TypeError          MsgType = "error"
	TypeReplHello      MsgType = "repl_hello"
	TypeReplBatch      MsgType = "repl_batch"
	TypeReplAck        MsgType = "repl_ack"
	TypePromote        MsgType = "promote"
)

// Role identifies what kind of agent a connection belongs to.
type Role string

// Agent roles.
const (
	RoleAP     Role = "ap"
	RoleObject Role = "object"
	RoleViewer Role = "viewer"
	// RoleRepl marks a replication link from a primary server streaming
	// its journal to a standby.
	RoleRepl Role = "repl"
)

// Protocol limits and errors.
const (
	// MaxFrameBytes bounds a single frame (headroom for a large CSI
	// batch).
	MaxFrameBytes = 16 << 20
)

var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds limit")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrBadMessage    = errors.New("wire: malformed message")
)

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire tag of the message.
	Type() MsgType
	// code walks the message body (codec.go).
	code(c coder) coder
}

// Hello announces an agent to the server.
type Hello struct {
	// Role is the agent kind.
	Role Role `json:"role"`
	// ID is the agent identity (AP id or object id).
	ID string `json:"id"`
	// Pos is the agent's position (APs only).
	Pos geom.Vec `json:"pos"`
	// SiteIndex is the nomadic AP's current waypoint (0 for static APs).
	SiteIndex int `json:"siteIndex"`
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

// HelloAck confirms registration.
type HelloAck struct {
	// OK reports acceptance.
	OK bool `json:"ok"`
	// ServerID names the server instance.
	ServerID string `json:"serverId"`
	// Detail carries a rejection reason when OK is false.
	Detail string `json:"detail,omitempty"`
}

// Type implements Message.
func (*HelloAck) Type() MsgType { return TypeHelloAck }

// RoundStart opens a measurement round: the object announces how many
// probe frames each AP should accumulate before reporting.
type RoundStart struct {
	// RoundID identifies the round.
	RoundID uint64 `json:"roundId"`
	// ObjectID is the transmitting object.
	ObjectID string `json:"objectId"`
	// Packets is the burst length per AP.
	Packets int `json:"packets"`
}

// Type implements Message.
func (*RoundStart) Type() MsgType { return TypeRoundStart }

// ProbeFrame is one simulated radio capture: the CSI an AP observes for
// one probe packet from the object. The server routes it to the addressed
// AP. (On real hardware this frame is the physical channel; the simulator
// computes it at the transmitter side.)
type ProbeFrame struct {
	// RoundID ties the frame to a measurement round.
	RoundID uint64 `json:"roundId"`
	// To addresses the capturing AP.
	To string `json:"to"`
	// Seq is the packet number within the round.
	Seq uint64 `json:"seq"`
	// RSSI is the coarse power reading in dBm.
	RSSI float64 `json:"rssi"`
	// CSI is the per-subcarrier channel snapshot.
	CSI csi.Vector `json:"csi"`
}

// Type implements Message.
func (*ProbeFrame) Type() MsgType { return TypeProbeFrame }

// PositionUpdate reports a nomadic AP's new believed position.
type PositionUpdate struct {
	// APID is the moving AP.
	APID string `json:"apId"`
	// SiteIndex is the new waypoint index (1-based per the mobility
	// trace).
	SiteIndex int `json:"siteIndex"`
	// Pos is the believed position at the new site.
	Pos geom.Vec `json:"pos"`
}

// Type implements Message.
func (*PositionUpdate) Type() MsgType { return TypePositionUpdate }

// CSIReport delivers an AP's accumulated burst for a round to the server.
type CSIReport struct {
	// RoundID ties the report to a measurement round.
	RoundID uint64 `json:"roundId"`
	// APID is the reporting AP.
	APID string `json:"apId"`
	// SiteIndex is the AP's waypoint at capture time (0 = static).
	SiteIndex int `json:"siteIndex"`
	// Pos is the believed AP position at capture time.
	Pos geom.Vec `json:"pos"`
	// Nomadic marks reports from a moving AP.
	Nomadic bool `json:"nomadic"`
	// Batch carries the captured samples.
	Batch csi.Batch `json:"batch"`
}

// Type implements Message.
func (*CSIReport) Type() MsgType { return TypeCSIReport }

// ReportAck acknowledges one CSIReport. Agents keep a report in their
// unacknowledged tail until its ack arrives, re-sending it after a
// reconnect or alongside the next report; the server's idempotent report
// handling makes the resulting duplicates harmless.
type ReportAck struct {
	// RoundID is the acknowledged report's round.
	RoundID uint64 `json:"roundId"`
	// APID is the reporting AP.
	APID string `json:"apId"`
	// SiteIndex is the acknowledged report's capture site.
	SiteIndex int `json:"siteIndex"`
}

// Type implements Message.
func (*ReportAck) Type() MsgType { return TypeReportAck }

// Estimate is the server's localization result for a round.
type Estimate struct {
	// RoundID is the round the estimate answers.
	RoundID uint64 `json:"roundId"`
	// ObjectID is the localized object.
	ObjectID string `json:"objectId"`
	// Pos is the position estimate.
	Pos geom.Vec `json:"pos"`
	// RelaxCost is the relaxation cost of the winning solve.
	RelaxCost float64 `json:"relaxCost"`
	// NumAnchors is how many anchors entered the solve.
	NumAnchors int `json:"numAnchors"`
}

// Type implements Message.
func (*Estimate) Type() MsgType { return TypeEstimate }

// ErrorMsg reports a protocol-level failure to a peer.
type ErrorMsg struct {
	// Detail is a human-readable description.
	Detail string `json:"detail"`
}

// Type implements Message.
func (*ErrorMsg) Type() MsgType { return TypeError }

// ReplHello opens a replication link from a primary to a standby. The
// standby answers with a ReplAck whose Seq is the last journal sequence
// it has durably applied — the primary resumes streaming from there.
type ReplHello struct {
	// ServerID names the logical localization service both sides serve.
	// A standby rejects a primary announcing a different service.
	ServerID string `json:"serverId"`
	// Epoch is the primary's fencing epoch. A standby that has promoted
	// to a higher epoch rejects the hello: the sender is a stale primary.
	Epoch uint64 `json:"epoch"`
}

// Type implements Message.
func (*ReplHello) Type() MsgType { return TypeReplHello }

// ReplRecord is one journal record in transit. Payload rides as raw
// bytes; Kind mirrors journal record kinds without importing the journal
// package.
type ReplRecord struct {
	// Seq is the record's journal sequence number.
	Seq uint64 `json:"seq"`
	// Kind is the journal record kind.
	Kind uint8 `json:"kind"`
	// Payload is the record body, exactly as journaled.
	Payload []byte `json:"payload"`
}

// ReplBatch carries a contiguous run of journal records from the primary
// to the standby. The standby acks the batch only after every record is
// durable in its own journal AND applied to its state.
type ReplBatch struct {
	// Epoch is the sending primary's fencing epoch, re-checked per batch
	// so a promotion mid-stream fences the rest of the stream too.
	Epoch uint64 `json:"epoch"`
	// Records are the journal records, ascending contiguous Seq.
	Records []ReplRecord `json:"records"`
}

// Type implements Message.
func (*ReplBatch) Type() MsgType { return TypeReplBatch }

// ReplAck answers a ReplHello, ReplBatch, or Promote.
type ReplAck struct {
	// OK reports acceptance. False with a higher Epoch means the sender
	// is fenced and must stop replicating.
	OK bool `json:"ok"`
	// Epoch is the receiver's current fencing epoch.
	Epoch uint64 `json:"epoch"`
	// Seq is the last journal sequence the receiver has durably applied.
	Seq uint64 `json:"seq"`
	// Detail carries a rejection reason when OK is false.
	Detail string `json:"detail,omitempty"`
}

// Type implements Message.
func (*ReplAck) Type() MsgType { return TypeReplAck }

// Promote orders a standby to become the primary. The standby adopts
// max(Epoch, its epoch+1) as its new fencing epoch — strictly above every
// epoch the old primary ever used — and begins accepting agent sessions.
type Promote struct {
	// Epoch is the requested new epoch; 0 lets the standby pick its
	// current epoch + 1.
	Epoch uint64 `json:"epoch"`
}

// Type implements Message.
func (*Promote) Type() MsgType { return TypePromote }

// Compile-time interface checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*HelloAck)(nil)
	_ Message = (*RoundStart)(nil)
	_ Message = (*ProbeFrame)(nil)
	_ Message = (*PositionUpdate)(nil)
	_ Message = (*CSIReport)(nil)
	_ Message = (*ReportAck)(nil)
	_ Message = (*Estimate)(nil)
	_ Message = (*ErrorMsg)(nil)
	_ Message = (*ReplHello)(nil)
	_ Message = (*ReplBatch)(nil)
	_ Message = (*ReplAck)(nil)
	_ Message = (*Promote)(nil)
)

// msgTypes lists the message types by wire tag: a frame's type byte is
// the index here. Tags are part of the format: append, never renumber.
var msgTypes = [...]MsgType{
	1:  TypeHello,
	2:  TypeHelloAck,
	3:  TypeRoundStart,
	4:  TypeProbeFrame,
	5:  TypePositionUpdate,
	6:  TypeCSIReport,
	7:  TypeReportAck,
	8:  TypeEstimate,
	9:  TypeError,
	10: TypeReplHello,
	11: TypeReplBatch,
	12: TypeReplAck,
	13: TypePromote,
}

// castagnoli is the CRC32C table every frame checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the length prefix, the CRC and the type byte.
const frameHeaderSize = 4 + 4 + 1

// newByType allocates the concrete message for a type, or returns nil.
func newByType(t MsgType) Message {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeHelloAck:
		return &HelloAck{}
	case TypeRoundStart:
		return &RoundStart{}
	case TypeProbeFrame:
		return &ProbeFrame{}
	case TypePositionUpdate:
		return &PositionUpdate{}
	case TypeCSIReport:
		return &CSIReport{}
	case TypeReportAck:
		return &ReportAck{}
	case TypeEstimate:
		return &Estimate{}
	case TypeError:
		return &ErrorMsg{}
	case TypeReplHello:
		return &ReplHello{}
	case TypeReplBatch:
		return &ReplBatch{}
	case TypeReplAck:
		return &ReplAck{}
	case TypePromote:
		return &Promote{}
	default:
		return nil
	}
}

// WriteMessage frames msg and writes it with a single Write. A message
// holding a value the codec refuses (a non-finite position, RSSI or cost;
// a time the snapshots' JSON cannot carry, see codec.go) is an error and
// nothing is written.
func WriteMessage(w io.Writer, msg Message) error {
	frame, err := encodeFrame(msg)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// encodeFrame renders msg as one whole frame, allocated once: a sizing
// pass over the body comes first.
func encodeFrame(msg Message) ([]byte, error) {
	tag := 0
	for i, t := range msgTypes {
		if t == msg.Type() {
			tag = i
		}
	}
	sizer := msg.code(coder{mode: sizing})
	if sizer.err != "" {
		return nil, fmt.Errorf("wire: cannot encode %s: %s", msg.Type(), sizer.err)
	}
	n := frameHeaderSize - 4 + sizer.n
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	buf := make([]byte, frameHeaderSize, 4+n)
	buf[8] = byte(tag)
	e := msg.code(coder{mode: encoding, buf: buf})
	binary.BigEndian.PutUint32(e.buf[:4], uint32(n))
	binary.BigEndian.PutUint32(e.buf[4:8], crc32.Checksum(e.buf[8:], castagnoli))
	return e.buf, nil
}

// ReadMessage reads one framed message. A frame that arrives whole but
// does not decode is an IsDecodeError; the stream stays framed.
func ReadMessage(r io.Reader) (Message, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // preserve io.EOF for clean-shutdown detection
	}
	n := binary.BigEndian.Uint32(header[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return decodeFrame(frame)
}

// DecodeMessage decodes one framed message from an in-memory buffer: the
// length prefix must describe the remainder exactly. It is the io-free
// twin of ReadMessage for payloads already in memory — the journal
// replay path decodes stored reports through it, keeping the replay
// effect set clean of io (analysis.GateForbidden). The message never
// aliases buf.
func DecodeMessage(buf []byte) (Message, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short frame header", ErrBadMessage)
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(len(buf)-4) != n {
		return nil, fmt.Errorf("%w: frame length %d, buffer holds %d", ErrBadMessage, n, len(buf)-4)
	}
	return decodeFrame(buf[4:])
}

// decodeFrame checks and decodes what follows a frame's length prefix:
// the CRC, the type byte and the body, which must be consumed exactly.
func decodeFrame(frame []byte) (Message, error) {
	if len(frame) < frameHeaderSize-4 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrBadMessage, len(frame))
	}
	if crc32.Checksum(frame[4:], castagnoli) != binary.BigEndian.Uint32(frame[:4]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadMessage)
	}
	var msg Message
	if tag := int(frame[4]); tag < len(msgTypes) {
		msg = newByType(msgTypes[tag])
	}
	if msg == nil {
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, frame[4])
	}
	d := msg.code(coder{mode: decoding, buf: frame[frameHeaderSize-4:]})
	if d.err == "" && len(d.buf) > 0 {
		d.err = fmt.Sprintf("%d trailing bytes", len(d.buf))
	}
	if d.err != "" {
		return nil, fmt.Errorf("%w: %s: %s", ErrBadMessage, msg.Type(), d.err)
	}
	return msg, nil
}

// IsDecodeError reports whether err is a per-frame decode failure after
// which the stream is still framed: the broken frame was consumed whole,
// so the reader may keep going. Transport errors and a too-large length
// prefix are NOT decode errors — after those the stream is desynced and
// the session is lost. Chaos-corrupted frames land here — the CRC refuses
// any corrupted body — which is what lets the server and agents survive
// corruption without dropping the session.
func IsDecodeError(err error) bool {
	return errors.Is(err, ErrBadMessage) || errors.Is(err, ErrUnknownType)
}
