package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/nomloc/nomloc/internal/geom"
	"github.com/nomloc/nomloc/internal/wire"
)

// Kind discriminates journal record types.
type Kind uint8

// Record kinds. The numeric values are part of the on-disk format and
// must never be reused for a different meaning.
const (
	// KindMeta is the first record of a fresh journal: the server
	// configuration replay needs (localization area, history bounds).
	KindMeta Kind = 1
	// KindSessionOpen / KindSessionClose bracket one agent session.
	KindSessionOpen  Kind = 2
	KindSessionClose Kind = 3
	// KindReport carries one stored CSI report, encoded as a wire frame
	// (wire.WriteMessage bytes), so the journal re-uses the protocol
	// encoding byte for byte.
	KindReport Kind = 4
	// KindRoundSolved records one successful round solve: the broadcast
	// estimate plus the identities of the reports that entered the solve.
	KindRoundSolved Kind = 5
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMeta:
		return "meta"
	case KindSessionOpen:
		return "session_open"
	case KindSessionClose:
		return "session_close"
	case KindReport:
		return "report"
	case KindRoundSolved:
		return "round_solved"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one decoded journal entry.
type Record struct {
	// Seq is the record's global sequence number (1-based, contiguous).
	Seq uint64
	// Kind tags the payload.
	Kind Kind
	// Payload is the kind-specific body.
	Payload []byte
}

// Meta is the KindMeta payload: everything a replay needs to rebuild the
// solve pipeline. Field order is fixed; the payload is canonical by
// construction (encoding/json preserves struct field order).
type Meta struct {
	// FormatVersion is the journal format version that wrote the record.
	FormatVersion uint32 `json:"formatVersion"`
	// ServerID names the server instance that owns the journal.
	ServerID string `json:"serverId"`
	// AreaVertices are the localization area polygon's vertices in order.
	AreaVertices []geom.Vec `json:"areaVertices"`
	// MaxNomadicSites is the per-(object, nomadic AP) history bound.
	MaxNomadicSites int `json:"maxNomadicSites"`
}

// SessionEvent is the KindSessionOpen / KindSessionClose payload.
type SessionEvent struct {
	// Role is the agent kind.
	Role wire.Role `json:"role"`
	// ID is the agent identity.
	ID string `json:"id"`
}

// AnchorRef names one stored report by identity: exactly the key the
// server's history keeps reports under.
type AnchorRef struct {
	// APID is the reporting AP.
	APID string `json:"apId"`
	// SiteIndex is the capture site (0 for static APs).
	SiteIndex int `json:"siteIndex"`
	// RoundID is the round the report was captured in.
	RoundID uint64 `json:"roundId"`
}

// RoundSolved is the KindRoundSolved payload: the estimate the server
// broadcast and the exact report set that produced it, in canonical solve
// order, so a replay can re-run the solve bit-for-bit even when later
// reports have since replaced those history entries.
type RoundSolved struct {
	// Estimate is the broadcast result.
	Estimate wire.Estimate `json:"estimate"`
	// Anchors identify the solve's inputs in canonical order.
	Anchors []AnchorRef `json:"anchors"`
}

// Journal format errors.
var (
	// ErrCorrupt marks a journal whose committed interior (anything
	// before the final segment's tail) fails validation. A clean torn
	// tail is NOT corruption; recovery truncates it silently.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrNoMeta marks a journal with records but no meta record, so a
	// replay cannot rebuild the solve pipeline.
	ErrNoMeta = errors.New("journal: no meta record")
	// ErrRecordTooLarge guards the record length prefix.
	ErrRecordTooLarge = errors.New("journal: record exceeds limit")
	// ErrFormatVersion marks a segment or snapshot whose magic and
	// checksum are valid but whose format version this build does not
	// read. Every reader refuses such a directory and leaves it untouched.
	ErrFormatVersion = errors.New("journal: unsupported format version")
)

// maxRecordBytes bounds one record (headroom over wire.MaxFrameBytes for
// the journal's own framing).
const maxRecordBytes = wire.MaxFrameBytes + 1<<20

// castagnoli is the CRC32C table every checksum in the format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordHeaderSize is the fixed per-record prefix: length (4) + CRC32C (4).
const recordHeaderSize = 8

// beginRecord starts a record at the end of dst: room for the header,
// then seq and kind. The payload is appended next, and sealRecord
// finishes the record:
//
//	[len u32][crc32c u32][seq u64][kind u8][payload ...]
//
// len counts the body (seq + kind + payload); the CRC covers the body, so
// a corrupted length shows up as a CRC mismatch at whatever body the bad
// length delimits.
func beginRecord(dst []byte, seq uint64, kind Kind) []byte {
	dst = append(dst, make([]byte, recordHeaderSize)...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return append(dst, byte(kind))
}

// sealRecord fills in the header of rec, a record begun by beginRecord
// with its payload appended.
func sealRecord(rec []byte) {
	body := rec[recordHeaderSize:]
	binary.BigEndian.PutUint32(rec[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(body, castagnoli))
}

// parseRecord decodes one record from the front of buf. It returns the
// record and the bytes consumed. ok is false when buf holds no complete,
// checksum-valid record — the torn-tail condition recovery truncates at.
func parseRecord(buf []byte) (rec Record, n int, ok bool) {
	if len(buf) < recordHeaderSize {
		return Record{}, 0, false
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[:4]))
	if bodyLen < 9 || bodyLen > maxRecordBytes {
		return Record{}, 0, false
	}
	total := recordHeaderSize + bodyLen
	if len(buf) < total {
		return Record{}, 0, false
	}
	wantCRC := binary.BigEndian.Uint32(buf[4:8])
	body := buf[recordHeaderSize:total]
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return Record{}, 0, false
	}
	rec = Record{
		Seq:     binary.BigEndian.Uint64(body[:8]),
		Kind:    Kind(body[8]),
		Payload: append([]byte(nil), body[9:]...),
	}
	return rec, total, true
}

// appendReportPayload appends a KindReport payload to dst: the owning
// object's ID (the association the wire frame itself does not carry — it
// comes from the round) followed by the report as a wire frame:
//
//	[objLen u16][objectID ...][wire frame ...]
func appendReportPayload(dst []byte, objectID string, rep *wire.CSIReport) ([]byte, error) {
	if len(objectID) > 1<<16-1 {
		return dst, fmt.Errorf("journal: object id %d bytes long", len(objectID))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(objectID)))
	return wire.AppendMessage(append(dst, objectID...), rep)
}

// decodeReportPayload decodes a KindReport payload back into the owning
// object ID and the report.
func decodeReportPayload(payload []byte) (string, *wire.CSIReport, error) {
	if len(payload) < 2 {
		return "", nil, fmt.Errorf("%w: report payload too short", ErrCorrupt)
	}
	objLen := int(binary.BigEndian.Uint16(payload[:2]))
	if len(payload) < 2+objLen {
		return "", nil, fmt.Errorf("%w: report payload object id truncated", ErrCorrupt)
	}
	objectID := string(payload[2 : 2+objLen])
	msg, err := wire.DecodeMessage(payload[2+objLen:])
	if err != nil {
		return "", nil, fmt.Errorf("%w: report payload: %v", ErrCorrupt, err)
	}
	rep, ok := msg.(*wire.CSIReport)
	if !ok {
		return "", nil, fmt.Errorf("%w: report payload holds %q", ErrCorrupt, msg.Type())
	}
	return objectID, rep, nil
}

// decodeJSON decodes a JSON payload into out with a typed corruption error.
func decodeJSON(payload []byte, out any, what string) error {
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrCorrupt, what, err)
	}
	return nil
}
