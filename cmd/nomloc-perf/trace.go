package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans of one round share Round; children
// name the round span as Parent.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Round  uint64    `json:"round"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// Span names. Each wraps a generator wire call or a server-boundary
// interval; the server itself is timed only through its public surface.
const (
	spanRound      = "round"                  // due → Estimate read
	spanWriteStart = "wire.write_round_start" // the object's RoundStart write
	spanFanout     = "server.fanout"          // RoundStart written → last AP's copy read
	spanEncode     = "wire.encode_report"     // an AP's report write
	spanAck        = "server.ack"             // report write returned → ReportAck read
	spanFinalize   = "server.finalize"        // last ReportAck read → Estimate read
)

// roundSpans renders a completed traced round as its spans.
func roundSpans(r *roundRec) []span {
	if !r.ok() {
		return nil
	}
	base := r.id << 4
	out := []span{
		{ID: base, Round: r.id, Name: spanRound, Start: r.due, End: r.done},
		{ID: base + 1, Parent: base, Round: r.id, Name: spanWriteStart, Start: r.begin, End: r.sent},
		{ID: base + 2, Parent: base, Round: r.id, Name: spanFanout, Start: r.sent, End: latest(r.apRead)},
	}
	for i := range r.written {
		out = append(out,
			span{ID: base + 3 + uint64(2*i), Parent: base, Round: r.id, Name: spanEncode, Start: r.encStart[i], End: r.written[i]},
			span{ID: base + 4 + uint64(2*i), Parent: base, Round: r.id, Name: spanAck, Start: r.written[i], End: r.acked[i]})
	}
	// The last ack and the estimate arrive on different connections, so
	// the estimate can be read first; the finalize span is then empty.
	fin := latest(r.acked)
	if fin.After(r.done) {
		fin = r.done
	}
	return append(out, span{ID: base + 15, Parent: base, Round: r.id, Name: spanFinalize, Start: fin, End: r.done})
}

func latest(ts []time.Time) time.Time {
	var t time.Time
	for _, x := range ts {
		if x.After(t) {
			t = x
		}
	}
	return t
}

// spanMicros returns the durations of every span named name, in µs.
func spanMicros(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, micros(s.dur()))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var cur time.Time
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if start.Before(cur) {
			start = cur
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}

// traceFile is what -trace-out holds for each workload.
type traceFile struct {
	Workload string             `json:"workload"`
	SelfUS   map[string]float64 `json:"self_us"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, traces []traceFile) error {
	buf, err := json.MarshalIndent(traces, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func newTraceFile(workload string, spans []span) traceFile {
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = micros(d)
	}
	return traceFile{Workload: workload, SelfUS: self, Spans: spans}
}
