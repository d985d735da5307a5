// Package server implements the NomLoc localization server: the top tier
// of the paper's Fig. 2 architecture. It accepts agent connections over
// the wire protocol, routes the object's probe frames to APs, aggregates
// CSI reports (one nomadic site per round, accumulated across rounds),
// runs the SP-based localization pipeline, and broadcasts estimates.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/parallel"
	"github.com/nomloc/nomloc/internal/replica"
	"github.com/nomloc/nomloc/internal/telemetry"
	"github.com/nomloc/nomloc/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// ID names the server instance in HelloAcks.
	ID string
	// Localizer runs the SP-based solves. Required.
	Localizer *core.Localizer
	// RoundTimeout finalizes a round even if some APs have not reported.
	// Defaults to 5 s.
	RoundTimeout time.Duration
	// SessionIdleTimeout evicts a session whose connection carries no
	// readable frame for this long, reclaiming dead agents whose TCP
	// peer vanished without a FIN. 0 (the default) disables eviction.
	// Deadlines are armed from the wall clock, so leave this off when
	// injecting a fixed Clock.
	SessionIdleTimeout time.Duration
	// MaxNomadicSites bounds how many distinct nomadic waypoints are kept
	// per (object, AP): older sites are evicted first. Defaults to 8.
	MaxNomadicSites int
	// Workers bounds how many rounds may run the localization solve
	// concurrently (each solve already runs outside the server lock).
	// 0 or 1 serializes solves; negative admits one per CPU.
	Workers int
	// Logf, when set, receives diagnostic log lines.
	Logf func(format string, args ...any)
	// Telemetry, when set, receives round-lifecycle metrics and trace
	// spans, and is served at /metrics by StatusHandler. Nil disables all
	// instrumentation at the cost of one pointer test per event.
	Telemetry *telemetry.Registry
	// Clock is the time source behind latency measurements. Defaults to
	// the Telemetry registry's clock (WallClock when Telemetry is nil).
	// Inject a fixed clock to make /metrics bodies reproducible.
	Clock telemetry.Clock
	// Journal, when set, makes the server durable: report history,
	// finished-round memory, and estimates recovered at Open seed the
	// server's state, and every state change is appended (and fsynced)
	// BEFORE its acknowledgment leaves the server. A journal append
	// failure halts the server rather than continuing with a diverged
	// log. The journal must be freshly Opened; the server writes through
	// it but the caller keeps ownership of Close.
	Journal *journal.Journal
	// JournalSnapshotEvery snapshots and compacts the journal after this
	// many solved rounds. 0 disables automatic snapshots (the journal
	// grows until the caller snapshots manually). Ignored without
	// Journal.
	JournalSnapshotEvery int
	// Standby starts the server as a replication standby (DESIGN.md
	// §14): it rejects agent sessions, accepts a primary's replication
	// stream, and appends + applies each replicated record so its state
	// tracks the primary's exactly. A Promote message (or the Promote
	// method) turns it into a serving primary at a higher epoch.
	// Requires Journal — the standby's copy must be durable too.
	Standby bool
	// Epoch is the fencing epoch the server starts at (defaults to 1).
	// Replication handshakes and batches announcing a lower epoch are
	// rejected — the split-brain guard. Promotion always moves to an
	// epoch strictly above the old primary's.
	Epoch uint64
}

// Server errors.
var (
	ErrNoLocalizer = errors.New("server: config needs a localizer")
	ErrClosed      = errors.New("server: closed")
	// ErrEmptyRound marks a round that finalized with no report history to
	// solve from: every expected report was lost (or no AP ever reported
	// for the object). It is counted separately from solve errors because
	// it indicts the transport, not the localizer.
	ErrEmptyRound = errors.New("server: round has no reports")
	// ErrJournalMismatch marks a recovered journal whose meta record
	// disagrees with the configuration — resuming would replay state
	// under different retention or solve geometry than it was written
	// with.
	ErrJournalMismatch = errors.New("server: journal meta does not match config")
	// ErrStandbyNeedsJournal rejects a standby configuration without a
	// journal: a standby's whole job is keeping a durable copy.
	ErrStandbyNeedsJournal = errors.New("server: standby mode requires a journal")
	// ErrFencedEpoch marks a replication message from a stale epoch — a
	// deposed primary trying to stream after a promotion. The sender
	// must stop; retrying would be split-brain.
	ErrFencedEpoch = errors.New("server: fenced: stale replication epoch")
	// ErrNotStandby marks a replication or promotion message sent to a
	// server that is not (or no longer) a standby.
	ErrNotStandby = errors.New("server: not a standby")
)

// Server is the localization server. Create with New, run with Serve, stop
// with Shutdown.
type Server struct {
	cfg     Config
	gate    *parallel.Gate // bounds concurrent localization solves
	metrics *serverMetrics // nil when telemetry is off

	mu        sync.Mutex
	ln        net.Listener
	sessions  map[*session]struct{}
	aps       map[string]*session
	objects   map[string]*session
	rounds    map[uint64]*round
	finished  map[uint64]struct{}          // recently finalized rounds (idempotent late reports)
	finishedQ []uint64                     // finished-round eviction order
	history   map[string][]*wire.CSIReport // per object: accumulated reports
	estimates []wire.Estimate
	sinceSnap int // rounds solved since the last automatic snapshot
	standby   bool
	epoch     uint64
	applier   *replica.Applier // standby apply loop; nil on a primary
	closed    bool

	wg sync.WaitGroup
}

// session is one connected agent.
type session struct {
	conn net.Conn
	role wire.Role
	id   string

	writeMu sync.Mutex
}

// round tracks one measurement round.
type round struct {
	id       uint64
	objectID string
	packets  int
	expected map[string]struct{} // AP ids expected to report
	reported map[string]struct{}
	timer    *time.Timer
	done     bool
	started  time.Time      // clock reading at RoundStart (telemetry only)
	span     telemetry.Span // open "round" trace span (telemetry only)
}

// New validates the configuration and builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Localizer == nil {
		return nil, ErrNoLocalizer
	}
	if cfg.ID == "" {
		cfg.ID = "nomloc-server"
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 5 * time.Second
	}
	if cfg.MaxNomadicSites <= 0 {
		cfg.MaxNomadicSites = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Clock == nil {
		if c := cfg.Telemetry.Clock(); c != nil {
			cfg.Clock = c
		} else {
			cfg.Clock = telemetry.WallClock
		}
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Standby && cfg.Journal == nil {
		return nil, ErrStandbyNeedsJournal
	}
	s := &Server{
		cfg:      cfg,
		gate:     parallel.NewGate(cfg.Workers),
		metrics:  newServerMetrics(cfg.Telemetry, cfg.Clock),
		sessions: make(map[*session]struct{}),
		aps:      make(map[string]*session),
		objects:  make(map[string]*session),
		rounds:   make(map[uint64]*round),
		finished: make(map[uint64]struct{}),
		history:  make(map[string][]*wire.CSIReport),
		standby:  cfg.Standby,
		epoch:    cfg.Epoch,
	}
	s.gate.Instrument(telemetry.NewPoolMetrics(cfg.Telemetry, "nomloc_server_pool"))
	if cfg.Journal != nil {
		if err := s.restoreFromJournal(); err != nil {
			return nil, err
		}
	}
	s.metrics.replEpochGauge(s.epoch)
	return s, nil
}

// journalMeta renders the meta record matching the configuration.
func (s *Server) journalMeta() journal.Meta {
	return journal.Meta{
		ServerID:        s.cfg.ID,
		AreaVertices:    s.cfg.Localizer.Config().Area.Vertices(),
		MaxNomadicSites: s.cfg.MaxNomadicSites,
	}
}

// restoreFromJournal seeds the server's durable state from the journal
// recovered at Open: a fresh journal receives the meta record; an
// existing one must match the configuration and contributes its report
// history, estimates, and finished-round window, so restarted servers
// resume with full memory.
func (s *Server) restoreFromJournal() error {
	j := s.cfg.Journal
	if s.cfg.Standby {
		// A standby never appends locally — every record in its journal
		// must come from the primary's stream with the primary's sequence
		// numbers, or the two directories stop being interchangeable. A
		// fresh standby journal therefore stays empty (the meta record
		// arrives as the first replicated record); a recovered one must
		// already match the configuration.
		if !j.Fresh() {
			if err := metaMatches(j.State().Meta, s.journalMeta()); err != nil {
				return err
			}
		}
		s.applier = replica.NewApplier(j.State())
		return nil
	}
	if j.Fresh() {
		if err := j.AppendMeta(s.journalMeta()); err != nil {
			return err
		}
		return nil
	}
	st := j.State()
	if err := metaMatches(st.Meta, s.journalMeta()); err != nil {
		return err
	}
	// Recovery runs before the server is shared, but adoptStateLocked's
	// contract is the mutex, so take it rather than special-case.
	s.mu.Lock()
	s.adoptStateLocked(st)
	s.mu.Unlock()
	return nil
}

// adoptStateLocked seeds the server's in-memory maps from a journal
// state: report history, the estimate log, and the finished-round window.
// Shared by crash recovery (restoreFromJournal) and standby promotion,
// so a promoted standby resumes with exactly the memory a restarted
// primary would. Called with s.mu held (or before the server is shared).
func (s *Server) adoptStateLocked(st *journal.State) {
	for _, oh := range st.History {
		s.history[oh.ObjectID] = append([]*wire.CSIReport(nil), oh.Reports...)
	}
	s.estimates = append(s.estimates, st.Estimates...)
	for _, id := range st.Finished {
		if _, dup := s.finished[id]; dup {
			continue
		}
		s.finished[id] = struct{}{}
		s.finishedQ = append(s.finishedQ, id)
	}
}

// metaMatches verifies a recovered meta record against the configured
// one. Floats compare bit-exactly: a "nearby" area is still a different
// solve geometry.
func metaMatches(got, want journal.Meta) error {
	if got.ServerID != want.ServerID {
		return fmt.Errorf("%w: journal belongs to %q, config says %q", ErrJournalMismatch, got.ServerID, want.ServerID)
	}
	if got.MaxNomadicSites != want.MaxNomadicSites {
		return fmt.Errorf("%w: journal retains %d nomadic sites, config says %d",
			ErrJournalMismatch, got.MaxNomadicSites, want.MaxNomadicSites)
	}
	if len(got.AreaVertices) != len(want.AreaVertices) {
		return fmt.Errorf("%w: journal area has %d vertices, config has %d",
			ErrJournalMismatch, len(got.AreaVertices), len(want.AreaVertices))
	}
	for i := range got.AreaVertices {
		if math.Float64bits(got.AreaVertices[i].X) != math.Float64bits(want.AreaVertices[i].X) ||
			math.Float64bits(got.AreaVertices[i].Y) != math.Float64bits(want.AreaVertices[i].Y) {
			return fmt.Errorf("%w: journal area vertex %d is %v, config has %v",
				ErrJournalMismatch, i, got.AreaVertices[i], want.AreaVertices[i])
		}
	}
	return nil
}

// crashLocked halts the server after a journal append failure: the log
// and the in-memory state can no longer be guaranteed to agree, so the
// only safe continuation is a restart through recovery. Called with s.mu
// held; never waits on handler goroutines (they may be the caller).
func (s *Server) crashLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.cfg.Logf("server: halting on journal failure: %v", err)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for sess := range s.sessions {
		_ = sess.conn.Close()
	}
	for _, r := range s.rounds {
		if r.timer != nil {
			r.timer.Stop()
		}
	}
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		sess := &session{conn: conn}
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(sess)
		}()
	}
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:0") and serves. The
// bound address is available via Addr once this returns from listening;
// for a race-free startup prefer creating the listener yourself.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown closes the listener and all connections and waits for the
// handler goroutines to exit. It is idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for sess := range s.sessions {
		_ = sess.conn.Close()
	}
	for _, r := range s.rounds {
		if r.timer != nil {
			r.timer.Stop()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Estimates returns a copy of all estimates produced so far.
func (s *Server) Estimates() []wire.Estimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wire.Estimate, len(s.estimates))
	copy(out, s.estimates)
	return out
}

// send writes a message to a session, serializing concurrent writers.
func (sess *session) send(msg wire.Message) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	return wire.WriteMessage(sess.conn, msg)
}

// handle runs one connection's read loop.
func (s *Server) handle(sess *session) {
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		if sess.role == wire.RoleAP && s.aps[sess.id] == sess {
			delete(s.aps, sess.id)
		}
		if sess.role == wire.RoleObject && s.objects[sess.id] == sess {
			delete(s.objects, sess.id)
		}
		if s.cfg.Journal != nil && sess.role != "" && sess.role != wire.RoleRepl && !s.standby && !s.closed {
			// Skipped during shutdown (handler teardown order is
			// scheduler-dependent there, and the journal's byte stream
			// must not depend on it), for replication links (they are
			// infrastructure, not agents), and on a standby (a standby
			// never appends locally — see restoreFromJournal).
			if err := s.cfg.Journal.AppendSessionClose(sess.role, sess.id); err != nil {
				s.crashLocked(err)
			}
		}
		s.mu.Unlock()
		if sess.role != "" {
			s.metrics.sessionDown(sess.role)
		}
		_ = sess.conn.Close()
	}()

	for {
		if s.cfg.SessionIdleTimeout > 0 {
			_ = sess.conn.SetReadDeadline(time.Now().Add(s.cfg.SessionIdleTimeout))
		}
		msg, err := wire.ReadMessage(sess.conn)
		if err != nil {
			if wire.IsDecodeError(err) {
				// The broken frame was consumed whole and the stream is
				// still framed (chaos corruption lands here): log, count,
				// and keep the session.
				s.metrics.badFrame()
				s.cfg.Logf("server: %s/%s: dropping bad frame: %v", sess.role, sess.id, err)
				continue
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.metrics.sessionEvicted()
				s.cfg.Logf("server: %s/%s: evicting idle session", sess.role, sess.id)
			}
			return // disconnect (EOF, desync, or idle eviction)
		}
		if err := s.dispatch(sess, msg); err != nil {
			s.cfg.Logf("server: %s/%s: %v", sess.role, sess.id, err)
			_ = sess.send(&wire.ErrorMsg{Detail: err.Error()})
		}
	}
}

// dispatch routes one message.
func (s *Server) dispatch(sess *session, msg wire.Message) error {
	switch m := msg.(type) {
	case *wire.Hello:
		return s.onHello(sess, m)
	case *wire.RoundStart:
		return s.onRoundStart(sess, m)
	case *wire.ProbeFrame:
		return s.onProbeFrame(m)
	case *wire.PositionUpdate:
		return s.onPositionUpdate(m)
	case *wire.CSIReport:
		return s.onCSIReport(sess, m)
	case *wire.ReplHello:
		return s.onReplHello(sess, m)
	case *wire.ReplBatch:
		return s.onReplBatch(sess, m)
	case *wire.Promote:
		return s.onPromote(sess, m)
	default:
		return fmt.Errorf("unexpected message %q", msg.Type())
	}
}

func (s *Server) onHello(sess *session, m *wire.Hello) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.standby {
		// A standby serves no agents. Rejecting the handshake (rather
		// than hanging) lets the agent's failover dial list rotate to
		// the primary immediately.
		_ = sess.send(&wire.HelloAck{OK: false, ServerID: s.cfg.ID, Detail: "standby: not serving agents"})
		return fmt.Errorf("standby: rejecting %s hello", m.Role)
	}
	if m.ID == "" {
		_ = sess.send(&wire.HelloAck{OK: false, ServerID: s.cfg.ID, Detail: "empty id"})
		return errors.New("hello with empty id")
	}
	switch m.Role {
	case wire.RoleAP:
		if other, dup := s.aps[m.ID]; dup && other != sess {
			_ = sess.send(&wire.HelloAck{OK: false, ServerID: s.cfg.ID, Detail: "duplicate AP id"})
			return fmt.Errorf("duplicate AP id %q", m.ID)
		}
		s.aps[m.ID] = sess
	case wire.RoleObject:
		s.objects[m.ID] = sess
	case wire.RoleViewer:
		// Viewers only receive estimates.
	default:
		_ = sess.send(&wire.HelloAck{OK: false, ServerID: s.cfg.ID, Detail: "unknown role"})
		return fmt.Errorf("unknown role %q", m.Role)
	}
	if sess.role != m.Role {
		if sess.role != "" {
			s.metrics.sessionDown(sess.role)
		}
		s.metrics.sessionUp(m.Role)
	}
	sess.role = m.Role
	sess.id = m.ID
	if s.cfg.Journal != nil {
		// Journal the registration before the ack: after a crash the
		// journal's session trail never claims fewer agents than were
		// acknowledged.
		if err := s.cfg.Journal.AppendSessionOpen(m.Role, m.ID); err != nil {
			s.crashLocked(err)
			return err
		}
	}
	s.cfg.Logf("server: registered %s %q", m.Role, m.ID)
	return sess.send(&wire.HelloAck{OK: true, ServerID: s.cfg.ID})
}

func (s *Server) onRoundStart(sess *session, m *wire.RoundStart) error {
	if sess.role != wire.RoleObject {
		return errors.New("round start from non-object")
	}
	s.mu.Lock()
	if _, dup := s.rounds[m.RoundID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("duplicate round %d", m.RoundID)
	}
	if _, done := s.finished[m.RoundID]; done {
		// A recovered server sees the object re-announce rounds that were
		// already solved before the crash. Re-send the recorded estimate
		// instead of re-opening the round — re-solving would append a
		// duplicate estimate the first run never produced.
		var est *wire.Estimate
		for i := len(s.estimates) - 1; i >= 0; i-- {
			if s.estimates[i].RoundID == m.RoundID {
				est = &s.estimates[i]
				break
			}
		}
		s.mu.Unlock()
		if est == nil {
			// Finished but estimate-less: the round ended empty or failed
			// its solve. The object gets the same terminal signal again.
			return sess.send(&wire.ErrorMsg{Detail: fmt.Sprintf("round %d already finalized without an estimate", m.RoundID)})
		}
		return sess.send(est)
	}
	r := &round{
		id:       m.RoundID,
		objectID: m.ObjectID,
		packets:  m.Packets,
		expected: make(map[string]struct{}, len(s.aps)),
		reported: make(map[string]struct{}),
		started:  s.metrics.now(),
		span:     s.metrics.roundStarted(),
	}
	var apSessions []*session
	for id, ap := range s.aps {
		r.expected[id] = struct{}{}
		apSessions = append(apSessions, ap)
	}
	s.rounds[m.RoundID] = r
	r.timer = time.AfterFunc(s.cfg.RoundTimeout, func() { s.finalizeRound(m.RoundID, true) })
	s.mu.Unlock()

	if len(apSessions) == 0 {
		return errors.New("no APs registered")
	}
	for _, ap := range apSessions {
		if err := ap.send(m); err != nil {
			s.cfg.Logf("server: forward round start to %s: %v", ap.id, err)
		}
	}
	return nil
}

func (s *Server) onProbeFrame(m *wire.ProbeFrame) error {
	s.mu.Lock()
	ap, ok := s.aps[m.To]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("probe frame for unknown AP %q", m.To)
	}
	return ap.send(m)
}

func (s *Server) onPositionUpdate(m *wire.PositionUpdate) error {
	// Broadcast to objects (their physics layer tracks AP motion) and log.
	s.mu.Lock()
	objs := make([]*session, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	s.mu.Unlock()
	s.cfg.Logf("server: %s moved to site %d at %v", m.APID, m.SiteIndex, m.Pos)
	for _, o := range objs {
		if err := o.send(m); err != nil {
			s.cfg.Logf("server: forward position update: %v", err)
		}
	}
	return nil
}

// onCSIReport stores one AP report and acknowledges it. Handling is
// idempotent per (round, AP): a duplicate delivery — chaos duplication,
// or an agent re-sending its unacknowledged tail after a reconnect — is
// counted, re-acknowledged so the sender can clear its tail, and never
// treated as an error. Reports for already-finalized rounds are likewise
// acknowledged and absorbed.
func (s *Server) onCSIReport(sess *session, m *wire.CSIReport) error {
	s.metrics.reportReceived()
	ack := &wire.ReportAck{RoundID: m.RoundID, APID: m.APID, SiteIndex: m.SiteIndex}
	s.mu.Lock()
	r, ok := s.rounds[m.RoundID]
	if !ok || r.done {
		_, wasFinished := s.finished[m.RoundID]
		s.mu.Unlock()
		if wasFinished {
			s.metrics.duplicateReport()
		} else {
			// A round the server never opened (its RoundStart was lost)
			// or one evicted from finished-round memory. Ack anyway so
			// the agent stops re-sending a report no round will consume.
			s.metrics.staleReport()
		}
		return sess.send(ack)
	}
	objectID := r.objectID
	if _, dup := r.reported[m.APID]; dup {
		s.metrics.duplicateReport()
		s.mu.Unlock()
		return sess.send(ack)
	}
	stored := s.storeReportLocked(objectID, m)
	if stored && s.cfg.Journal != nil {
		// WAL contract: the report is durable before its ack leaves the
		// server, so a crash after this point re-delivers at worst an
		// already-journaled report, which replays idempotently.
		if err := s.cfg.Journal.AppendReport(objectID, m); err != nil {
			s.crashLocked(err)
			s.mu.Unlock()
			return err
		}
	}
	r.reported[m.APID] = struct{}{}
	complete := len(r.reported) >= len(r.expected)
	s.mu.Unlock()

	if err := sess.send(ack); err != nil {
		s.cfg.Logf("server: ack report %d/%s: %v", m.RoundID, m.APID, err)
	}
	if complete {
		s.finalizeRound(m.RoundID, false)
	}
	return nil
}

// storeReportLocked absorbs a report into the object's history through
// the retention semantics shared with journal replay — most recent report
// per static AP and per (nomadic AP, site), bounded by MaxNomadicSites,
// recency judged by round id — and reports whether it was stored. The
// shared implementation is what lets a recovered journal rebuild exactly
// this map.
func (s *Server) storeReportLocked(objectID string, m *wire.CSIReport) bool {
	hist, stored := journal.ApplyReport(s.history[objectID], m, s.cfg.MaxNomadicSites)
	if !stored {
		s.metrics.staleReport()
		return false
	}
	s.history[objectID] = hist
	return true
}

// finalizeRound runs localization for a round using the object's full
// report history and broadcasts the estimate.
func (s *Server) finalizeRound(roundID uint64, timeout bool) {
	s.mu.Lock()
	r, ok := s.rounds[roundID]
	if !ok || r.done {
		s.mu.Unlock()
		return
	}
	r.done = true
	if r.timer != nil {
		r.timer.Stop()
	}
	delete(s.rounds, roundID)
	s.finished[roundID] = struct{}{}
	s.finishedQ = append(s.finishedQ, roundID)
	if len(s.finishedQ) > journal.MaxFinishedRounds {
		delete(s.finished, s.finishedQ[0])
		s.finishedQ = s.finishedQ[1:]
	}
	reports := append([]*wire.CSIReport(nil), s.history[r.objectID]...)
	obj := s.objects[r.objectID]
	closed := s.closed
	s.mu.Unlock()

	if closed {
		return
	}
	s.metrics.roundFinalized(r.span, r.started, timeout)
	if timeout {
		s.cfg.Logf("server: round %d finalized by timeout (%d/%d reports)",
			roundID, len(r.reported), len(r.expected))
	}
	if len(reports) == 0 {
		// Nothing to solve from at all — distinct from degraded: there is
		// no estimate to hand back, only a typed error.
		s.metrics.emptyRound()
		s.cfg.Logf("server: round %d: %v", roundID, ErrEmptyRound)
		if obj != nil {
			_ = obj.send(&wire.ErrorMsg{Detail: fmt.Sprintf("round %d: %v", roundID, ErrEmptyRound)})
		}
		return
	}
	if timeout && len(r.reported) < len(r.expected) {
		// A partial round still solves from accumulated history — that is
		// NomLoc's degraded mode, worth a counter rather than an error.
		s.metrics.degradedRound()
	}
	// Canonical solve order: history arrival order depends on network
	// interleaving, so sort by identity to keep estimates bit-reproducible
	// under reordered deliveries.
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].APID != reports[j].APID {
			return reports[i].APID < reports[j].APID
		}
		return reports[i].SiteIndex < reports[j].SiteIndex
	})

	// Admission through the gate bounds how many rounds solve at once;
	// the solve itself runs outside the server lock, so reports for other
	// rounds keep flowing while this one computes.
	if err := s.gate.Enter(context.Background()); err != nil {
		return
	}
	solveSpan := s.metrics.solveSpan()
	solveStart := s.metrics.now()
	est, err := s.localize(reports)
	solveSpan.End()
	s.metrics.solved(solveStart, len(reports), err)
	s.gate.Leave()
	if err != nil {
		s.cfg.Logf("server: round %d: localize: %v", roundID, err)
		if obj != nil {
			_ = obj.send(&wire.ErrorMsg{Detail: fmt.Sprintf("round %d: %v", roundID, err)})
		}
		return
	}
	out := wire.Estimate{
		RoundID:    roundID,
		ObjectID:   r.objectID,
		Pos:        est.Position,
		RelaxCost:  est.RelaxCost,
		NumAnchors: len(reports),
	}

	s.mu.Lock()
	if s.cfg.Journal != nil {
		// Durable before visible: the solved round hits the log before the
		// estimate is stored or broadcast. Anchors are recorded by identity
		// in solve order, so replay re-solves this exact input set even
		// after later rounds rewrite the history entries.
		rs := journal.RoundSolved{Estimate: out, Anchors: make([]journal.AnchorRef, len(reports))}
		for i, rep := range reports {
			rs.Anchors[i] = journal.AnchorRef{APID: rep.APID, SiteIndex: rep.SiteIndex, RoundID: rep.RoundID}
		}
		if jerr := s.cfg.Journal.AppendRoundSolved(rs); jerr != nil {
			s.crashLocked(jerr)
			s.mu.Unlock()
			return
		}
	}
	s.estimates = append(s.estimates, out)
	s.maybeSnapshotLocked()
	targets := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		if sess.role == wire.RoleObject || sess.role == wire.RoleViewer {
			targets = append(targets, sess)
		}
	}
	s.mu.Unlock()

	for _, t := range targets {
		if err := t.send(&out); err != nil {
			s.cfg.Logf("server: send estimate: %v", err)
		}
	}
}

// localize runs the SP pipeline over the report set through the solve
// path shared with journal replay, so `nomloc-replay -verify` re-executes
// exactly what the live server ran.
func (s *Server) localize(reports []*wire.CSIReport) (*core.Estimate, error) {
	return journal.SolveReports(s.cfg.Localizer, reports)
}

// maybeSnapshotLocked runs the automatic snapshot+compact policy after a
// solved round. Snapshot failures are logged, not fatal: the WAL itself
// is still appending correctly, so durability is intact — only compaction
// is deferred.
func (s *Server) maybeSnapshotLocked() {
	j := s.cfg.Journal
	if j == nil || s.cfg.JournalSnapshotEvery <= 0 {
		return
	}
	s.sinceSnap++
	if s.sinceSnap < s.cfg.JournalSnapshotEvery {
		return
	}
	s.sinceSnap = 0
	if err := j.Snapshot(s.snapshotStateLocked()); err != nil {
		if j.Broken() {
			// A broken journal refuses every further append: this is a
			// crash (real or injected), not a transient snapshot failure.
			s.crashLocked(err)
			return
		}
		s.cfg.Logf("server: journal snapshot: %v", err)
		return
	}
	if err := j.Compact(); err != nil {
		s.cfg.Logf("server: journal compact: %v", err)
	}
}

// snapshotStateLocked captures the server's durable state in the
// journal's canonical order. Holding s.mu while reading LastSeq is what
// makes the seq name a consistent prefix: every append happens under the
// same lock.
func (s *Server) snapshotStateLocked() *journal.State {
	st := &journal.State{
		Meta:      s.journalMeta(),
		Seq:       s.cfg.Journal.LastSeq(),
		Estimates: append([]wire.Estimate(nil), s.estimates...),
		Finished:  append([]uint64(nil), s.finishedQ...),
	}
	st.Meta.FormatVersion = journal.FormatVersion
	ids := make([]string, 0, len(s.history))
	for id := range s.history {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st.History = append(st.History, journal.ObjectHistory{
			ObjectID: id,
			Reports:  append([]*wire.CSIReport(nil), s.history[id]...),
		})
	}
	return st
}
