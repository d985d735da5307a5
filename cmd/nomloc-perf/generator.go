package main

import (
	"fmt"
	"net"
	"regexp"
	"strconv"
	"sync"
	"time"

	"github.com/nomloc/nomloc/internal/wire"
)

// roundTimeout is the server's default RoundTimeout, which the benchmark
// leaves in place; a round with no estimate a second after it has failed.
const roundTimeout = 5 * time.Second

// roundRec is one round as the generator saw it. Every field after the
// identity is written under generator.mu.
type roundRec struct {
	obj, k int
	id     uint64
	due    time.Time // when the schedule wanted it sent
	ready  time.Time // max(due, predecessor complete): lateness after this is the generator's
	begin  time.Time // the RoundStart write began
	sent   time.Time // the RoundStart write returned

	apRead   []time.Time // each AP's copy of the RoundStart read (traced only)
	encStart []time.Time // each report write began (traced only)
	written  []time.Time // each report write returned
	acked    []time.Time // each ReportAck read
	done     time.Time   // Estimate read
	est      wire.Estimate

	remaining int // acks and estimate still due
	complete  time.Time
	failed    string
	doneCh    chan struct{} // closed once complete or failed
	closed    bool
}

func (r *roundRec) ok() bool { return r.failed == "" }

// generator is the load generator: one connection per AP answering each
// forwarded RoundStart with its pre-generated report, and one object
// connection carrying every logical object's RoundStarts.
type generator struct {
	in      *inputs
	obj     net.Conn
	objMu   sync.Mutex // serializes RoundStart writes
	aps     []net.Conn
	readers sync.WaitGroup

	mu      sync.Mutex
	rounds  map[uint64]*roundRec
	tracing bool
	spans   []span
	stray   []string // failures no round claims
}

// dial opens the five connections and registers every logical object on
// the object connection, so the server routes each object's errors there.
func dial(in *inputs, addr string) (*generator, error) {
	g := &generator{in: in, rounds: make(map[uint64]*roundRec)}
	for _, ap := range in.aps {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial ap %s: %w", ap.id, err)
		}
		g.aps = append(g.aps, c)
		if err := handshake(c, &wire.Hello{Role: wire.RoleAP, ID: ap.id, Pos: ap.sites[0]}); err != nil {
			g.close()
			return nil, err
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		g.close()
		return nil, fmt.Errorf("dial object: %w", err)
	}
	g.obj = c
	for _, id := range in.objects {
		if err := handshake(c, &wire.Hello{Role: wire.RoleObject, ID: id}); err != nil {
			g.close()
			return nil, err
		}
	}
	for i, c := range g.aps {
		g.readers.Add(1)
		go func() {
			defer g.readers.Done()
			g.readAP(i, c)
		}()
	}
	g.readers.Add(1)
	go func() {
		defer g.readers.Done()
		g.readObject()
	}()
	return g, nil
}

func handshake(c net.Conn, h *wire.Hello) error {
	if err := wire.WriteMessage(c, h); err != nil {
		return fmt.Errorf("hello %s: %w", h.ID, err)
	}
	msg, err := wire.ReadMessage(c)
	if err != nil {
		return fmt.Errorf("hello ack %s: %w", h.ID, err)
	}
	if ack, ok := msg.(*wire.HelloAck); !ok || !ack.OK {
		return fmt.Errorf("hello %s rejected: %v", h.ID, msg)
	}
	return nil
}

// close closes every connection and waits for the readers to exit.
func (g *generator) close() {
	for _, c := range g.aps {
		_ = c.Close()
	}
	if g.obj != nil {
		_ = g.obj.Close()
	}
	g.readers.Wait()
}

func (g *generator) strayf(format string, args ...any) {
	g.mu.Lock()
	g.stray = append(g.stray, fmt.Sprintf(format, args...))
	g.mu.Unlock()
}

// readAP answers RoundStarts with reports and times the acks.
func (g *generator) readAP(i int, c net.Conn) {
	for {
		msg, err := wire.ReadMessage(c)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.RoundStart:
			g.onRoundStart(i, c, m)
		case *wire.ReportAck:
			now := time.Now()
			g.mu.Lock()
			if r := g.rounds[m.RoundID]; r != nil && r.acked[i].IsZero() {
				r.acked[i] = now
				r.progressLocked(now)
			}
			g.mu.Unlock()
		case *wire.ErrorMsg:
			g.strayf("%s: server error: %s", g.in.aps[i].id, m.Detail)
		}
	}
}

func (g *generator) onRoundStart(i int, c net.Conn, m *wire.RoundStart) {
	g.mu.Lock()
	r := g.rounds[m.RoundID]
	tracing := g.tracing
	if r != nil && tracing {
		r.apRead[i] = time.Now()
	}
	g.mu.Unlock()
	if r == nil {
		g.strayf("%s: round start for unknown round %d", g.in.aps[i].id, m.RoundID)
		return
	}
	rep := g.in.report(r.obj, r.k, i)
	var start time.Time
	if tracing {
		start = time.Now()
	}
	err := wire.WriteMessage(c, rep)
	end := time.Now()
	g.mu.Lock()
	r.encStart[i], r.written[i] = start, end
	if err != nil {
		r.failLocked(fmt.Sprintf("%s: write report: %v", g.in.aps[i].id, err))
	}
	g.mu.Unlock()
}

// roundInDetail finds the round an ErrorMsg names.
var roundInDetail = regexp.MustCompile(`round (\d+)`)

func (g *generator) readObject() {
	for {
		msg, err := wire.ReadMessage(g.obj)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.Estimate:
			now := time.Now()
			g.mu.Lock()
			if r := g.rounds[m.RoundID]; r != nil && r.done.IsZero() {
				r.done, r.est = now, *m
				r.progressLocked(now)
			}
			g.mu.Unlock()
		case *wire.ErrorMsg:
			var r *roundRec
			if sub := roundInDetail.FindStringSubmatch(m.Detail); sub != nil {
				if id, err := strconv.ParseUint(sub[1], 10, 64); err == nil {
					g.mu.Lock()
					r = g.rounds[id]
					if r != nil {
						r.failLocked("server error: " + m.Detail)
					}
					g.mu.Unlock()
				}
			}
			if r == nil {
				g.strayf("object connection: server error: %s", m.Detail)
			}
		}
	}
}

// progressLocked counts one ack or the estimate in; the last one
// completes the round.
func (r *roundRec) progressLocked(now time.Time) {
	r.remaining--
	if r.remaining == 0 && !r.closed {
		r.complete = now
		r.closed = true
		close(r.doneCh)
	}
}

// failLocked marks the round failed, keeping the first reason, and
// releases its waiter.
func (r *roundRec) failLocked(why string) {
	if r.failed == "" {
		r.failed = why
	}
	if !r.closed {
		r.complete = time.Now()
		r.closed = true
		close(r.doneCh)
	}
}

// start sends object obj's k-th round.
func (g *generator) start(obj, k int, due, ready time.Time) *roundRec {
	n := len(g.aps)
	r := &roundRec{
		obj: obj, k: k, id: g.in.roundID(obj, k), due: due, ready: ready,
		apRead: make([]time.Time, n), encStart: make([]time.Time, n),
		written: make([]time.Time, n), acked: make([]time.Time, n),
		remaining: n + 1, doneCh: make(chan struct{}),
	}
	r.begin = time.Now()
	g.mu.Lock()
	g.rounds[r.id] = r
	g.mu.Unlock()
	g.objMu.Lock()
	err := wire.WriteMessage(g.obj, &wire.RoundStart{RoundID: r.id, ObjectID: g.in.objects[obj], Packets: g.in.w.packets})
	sent := time.Now()
	g.objMu.Unlock()
	g.mu.Lock()
	r.sent = sent
	if err != nil {
		r.failLocked(fmt.Sprintf("write round start: %v", err))
	}
	g.mu.Unlock()
	return r
}

// wait blocks until r completes, fails, or runs out of time, then
// forgets it; with tracing on it records the round's spans.
func (g *generator) wait(r *roundRec) {
	t := time.NewTimer(roundTimeout + time.Second)
	defer t.Stop()
	select {
	case <-r.doneCh:
	case <-t.C:
		g.mu.Lock()
		r.failLocked("no estimate within the round timeout")
		g.mu.Unlock()
	}
	g.mu.Lock()
	delete(g.rounds, r.id)
	if r.ok() && r.done.Sub(r.sent) >= roundTimeout {
		r.failed = "finalized by the round timeout (degraded)"
	}
	if g.tracing {
		g.spans = append(g.spans, roundSpans(r)...)
	}
	g.mu.Unlock()
}

// pace selects a schedule. rate > 0 is the open loop: object o's j-th
// round is due at (j·objects + o)/rate, so objects are evenly phase
// shifted. Otherwise the loop is closed: each object sends its next round
// as soon as the previous one completes, for rounds rounds or until the
// deadline.
type pace struct {
	rate   float64
	rounds int       // per object; 0 with a deadline
	until  time.Time // closed loop only
}

// drive runs one phase from each object's next round index and returns
// its rounds, each object's in send order. Each object has at most one
// round in flight; a late open-loop round goes out as soon as its
// predecessor completes and keeps its due time.
func (g *generator) drive(next []int, p pace) []*roundRec {
	n := len(next)
	per := make([][]*roundRec, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for obj := 0; obj < n; obj++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev time.Time
			for j := 0; p.rounds == 0 || j < p.rounds; j++ {
				var due time.Time
				if p.rate > 0 {
					due = t0.Add(time.Duration(float64(j*n+obj) / p.rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				} else {
					due = time.Now()
					if !p.until.IsZero() && !due.Before(p.until) {
						break
					}
				}
				ready := due
				if prev.After(ready) {
					ready = prev
				}
				r := g.start(obj, next[obj], due, ready)
				next[obj]++
				g.wait(r)
				prev = r.complete
				per[obj] = append(per[obj], r)
			}
		}()
	}
	wg.Wait()
	var out []*roundRec
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// strays returns the failures the generator saw outside any round.
func (g *generator) strays() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.stray...)
}

// setTracing switches span recording on or off and returns the spans
// recorded since it was last switched on.
func (g *generator) setTracing(on bool) []span {
	g.mu.Lock()
	defer g.mu.Unlock()
	spans := g.spans
	g.tracing, g.spans = on, nil
	return spans
}
