package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/parallel"
	"github.com/nomloc/nomloc/internal/telemetry"
	"github.com/nomloc/nomloc/internal/wire"
)

// Sender errors.
var (
	// ErrFenced marks a terminal rejection: the standby (or its
	// successor) runs a higher epoch, so this sender belongs to a
	// deposed primary and must stop — retrying would be split-brain.
	ErrFenced = errors.New("replica: fenced by a higher epoch")
	// ErrSenderClosed is returned by Run after Close.
	ErrSenderClosed = errors.New("replica: sender closed")
	// ErrRecordTooLarge marks a single journal record larger than
	// BatchBytes, so no batch can carry it.
	ErrRecordTooLarge = errors.New("replica: record exceeds replication frame budget")
)

// Sender defaults.
const (
	defaultBatchMax   = 64
	defaultBatchBytes = 4 << 20
	defaultPoll       = 20 * time.Millisecond
	defaultRetryBase  = 10 * time.Millisecond
	defaultRetryMax   = time.Second
	// senderStream tags the RNG stream jittering reconnect backoff,
	// disjoint from agent and scenario streams of the same seed.
	senderStream = 0x5e17d1
)

// Config parameterizes a Sender.
type Config struct {
	// Journal is the live journal to stream. Its fsync floor bounds the
	// stream: a record is shipped only after the append that wrote it
	// has committed. Exactly one of Journal and Dir must be set.
	Journal *journal.Journal
	// Dir streams a journal directory without a live owner — the
	// post-mortem drain of a dead primary's disk toward the standby
	// before promotion.
	Dir string
	// Addr is the standby's listen address.
	Addr string
	// ServerID names the logical service; it must match the standby's.
	ServerID string
	// Epoch is the sending primary's fencing epoch.
	Epoch uint64
	// Dialer replaces plain TCP dialing when set (chaos injection,
	// in-memory transports).
	Dialer func(addr string) (net.Conn, error)
	// BatchMax caps records per ReplBatch (default 64).
	BatchMax int
	// BatchBytes caps the summed payload bytes per batch (default 4 MiB,
	// well under wire.MaxFrameBytes: payloads ride as raw bytes).
	BatchBytes int
	// Poll is the sleep between tail checks when caught up (default
	// 20 ms).
	Poll time.Duration
	// Seed drives the reconnect-jitter stream.
	Seed int64
	// RetryBase and RetryMax bound the reconnect backoff (defaults
	// 10 ms and 1 s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxRetries caps consecutive failed connection attempts; 0 retries
	// forever (until Close or a fencing rejection).
	MaxRetries int
	// Sleep replaces time.Sleep when set (tests collapse waits).
	Sleep func(time.Duration)
	// Telemetry, when set, receives the sender's nomloc_repl_* metrics.
	Telemetry *telemetry.Registry
	// Logf, when set, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

// Sender streams journal records to a standby until fenced or closed.
type Sender struct {
	cfg     Config
	rng     *rand.Rand
	metrics *senderMetrics

	mu       sync.Mutex
	conn     net.Conn // live connection, closed to interrupt a blocking read
	closed   bool
	acked    uint64 // highest seq the standby acknowledged
	lastRead uint64 // highest seq gathered off the tail
	drained  bool   // dir mode: the tail hit the directory's durable end
}

// NewSender validates cfg and builds a sender. Run starts the stream.
func NewSender(cfg Config) (*Sender, error) {
	if (cfg.Journal == nil) == (cfg.Dir == "") {
		return nil, errors.New("replica: config needs exactly one of Journal and Dir")
	}
	if cfg.Addr == "" {
		return nil, errors.New("replica: config needs the standby address")
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = defaultBatchMax
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = defaultBatchBytes
	}
	if cfg.Poll <= 0 {
		cfg.Poll = defaultPoll
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = defaultRetryMax
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &Sender{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(parallel.MixSeed(cfg.Seed, senderStream, 0))),
		metrics: newSenderMetrics(cfg.Telemetry),
	}, nil
}

// Run streams the journal to the standby, reconnecting with capped
// exponential backoff on transport loss, until Close (returns
// ErrSenderClosed), a fencing rejection (returns ErrFenced), a source no
// retry can read past (returns journal.ErrTailGap, journal.ErrCorrupt,
// journal.ErrFormatVersion or ErrRecordTooLarge), or — in Dir mode —
// never on its own: a drained directory just polls for more, so the
// caller decides when the drain is complete via Caught.
func (s *Sender) Run() error {
	attempt := 0
	for {
		if s.isClosed() {
			return ErrSenderClosed
		}
		err := s.session()
		switch {
		case errors.Is(err, ErrFenced):
			s.cfg.Logf("replica: sender fenced: %v", err)
			return err
		case errors.Is(err, ErrSenderClosed), s.isClosed():
			return ErrSenderClosed
		case errors.Is(err, journal.ErrTailGap), errors.Is(err, journal.ErrCorrupt),
			errors.Is(err, journal.ErrFormatVersion), errors.Is(err, ErrRecordTooLarge):
			// Unrecoverable by retrying: the stream cannot make progress.
			return err
		}
		attempt++
		if s.cfg.MaxRetries > 0 && attempt > s.cfg.MaxRetries {
			return fmt.Errorf("replica: giving up after %d attempts: %w", attempt-1, err)
		}
		s.cfg.Logf("replica: session lost (attempt %d): %v", attempt, err)
		s.cfg.Sleep(backoff(s.cfg.RetryBase, s.cfg.RetryMax, attempt, s.rng))
	}
}

// Caught reports whether the standby has acknowledged every record the
// source currently holds — the drain-complete signal before a promotion.
// In Dir mode "currently holds" means the directory's durable end, which
// the drain discovers by reading to it.
func (s *Sender) Caught() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Journal != nil {
		return s.acked >= s.cfg.Journal.LastSeq()
	}
	return s.drained && s.acked >= s.lastRead
}

// Acked returns the highest sequence number the standby has durably
// acknowledged.
func (s *Sender) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// session runs one connection lifetime: handshake, resume, stream.
func (s *Sender) session() error {
	conn, err := s.cfg.Dialer(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("replica: dial %s: %w", s.cfg.Addr, err)
	}
	if !s.install(conn) {
		_ = conn.Close()
		return ErrSenderClosed
	}
	defer s.uninstall(conn)
	s.metrics.connect()

	if err := wire.WriteMessage(conn, &wire.ReplHello{ServerID: s.cfg.ServerID, Epoch: s.cfg.Epoch}); err != nil {
		return fmt.Errorf("replica: hello: %w", err)
	}
	ack, err := s.readAck(conn)
	if err != nil {
		return err
	}
	if !ack.OK {
		if ack.Epoch > s.cfg.Epoch {
			return fmt.Errorf("%w: standby at epoch %d, sender at %d: %s", ErrFenced, ack.Epoch, s.cfg.Epoch, ack.Detail)
		}
		return fmt.Errorf("replica: standby rejected hello: %s", ack.Detail)
	}
	s.setAcked(ack.Seq)
	return s.stream(conn, ack.Seq)
}

// stream follows the journal from afterSeq, shipping batches and
// processing acks until the connection dies or the sender closes.
func (s *Sender) stream(conn net.Conn, afterSeq uint64) error {
	tail, err := s.openTail(afterSeq)
	if err != nil {
		return err
	}
	defer tail.Close()
	var held *wire.ReplRecord // byte-budget spillover from the last gather
	for {
		if s.isClosed() {
			return ErrSenderClosed
		}
		batch, spill, err := s.gather(tail, held)
		if err != nil {
			return err
		}
		held = spill
		if len(batch) == 0 {
			s.metrics.lag(s.lagRecords())
			s.cfg.Sleep(s.cfg.Poll)
			continue
		}
		if err := wire.WriteMessage(conn, &wire.ReplBatch{Epoch: s.cfg.Epoch, Records: batch}); err != nil {
			return fmt.Errorf("replica: send batch: %w", err)
		}
		ack, err := s.readAck(conn)
		if err != nil {
			return err
		}
		if !ack.OK {
			if ack.Epoch > s.cfg.Epoch {
				return fmt.Errorf("%w: standby at epoch %d, sender at %d: %s", ErrFenced, ack.Epoch, s.cfg.Epoch, ack.Detail)
			}
			return fmt.Errorf("replica: standby rejected batch: %s", ack.Detail)
		}
		s.setAcked(ack.Seq)
		s.metrics.sent(len(batch))
		s.metrics.lag(s.lagRecords())
	}
}

// openTail opens the configured record source positioned after afterSeq.
func (s *Sender) openTail(afterSeq uint64) (*journal.Tail, error) {
	if s.cfg.Journal != nil {
		return s.cfg.Journal.Tail(afterSeq)
	}
	return journal.TailDir(s.cfg.Dir, afterSeq)
}

// gather pulls the next batch off the tail, bounded by count and bytes.
// held is a record a previous gather consumed but could not fit; a
// record that overflows this batch comes back as the next held.
func (s *Sender) gather(tail *journal.Tail, held *wire.ReplRecord) ([]wire.ReplRecord, *wire.ReplRecord, error) {
	var batch []wire.ReplRecord
	bytes := 0
	if held != nil {
		batch = append(batch, *held)
		bytes = len(held.Payload)
	}
	for len(batch) < s.cfg.BatchMax {
		rec, done, err := tail.Next()
		if err != nil {
			return nil, nil, err
		}
		if done {
			s.markRead(0, s.cfg.Journal == nil)
			break
		}
		if len(rec.Payload) > s.cfg.BatchBytes {
			return nil, nil, fmt.Errorf("%w: seq %d carries %d bytes", ErrRecordTooLarge, rec.Seq, len(rec.Payload))
		}
		s.markRead(rec.Seq, false)
		wr := wire.ReplRecord{Seq: rec.Seq, Kind: uint8(rec.Kind), Payload: rec.Payload}
		if bytes+len(rec.Payload) > s.cfg.BatchBytes && len(batch) > 0 {
			// Over budget: the record opens the next batch. The Tail has
			// already consumed it, so carry it across.
			return batch, &wr, nil
		}
		batch = append(batch, wr)
		bytes += len(rec.Payload)
	}
	return batch, nil, nil
}

// markRead tracks drain progress: the highest gathered seq and, in Dir
// mode, whether the durable end was reached. Any new record clears the
// drained flag (a freshly rolled segment can extend a directory).
func (s *Sender) markRead(seq uint64, drained bool) {
	s.mu.Lock()
	if seq > s.lastRead {
		s.lastRead = seq
		s.drained = false
	}
	if drained {
		s.drained = true
	}
	s.mu.Unlock()
}

// readAck reads frames until a ReplAck arrives, skipping decode errors
// and advisory ErrorMsg frames (the standby pairs every NACKed batch
// with an ErrorMsg on its generic error path).
func (s *Sender) readAck(conn net.Conn) (*wire.ReplAck, error) {
	for {
		msg, err := wire.ReadMessage(conn)
		if err != nil {
			if wire.IsDecodeError(err) {
				s.cfg.Logf("replica: dropping bad frame: %v", err)
				continue
			}
			return nil, fmt.Errorf("replica: read ack: %w", err)
		}
		switch m := msg.(type) {
		case *wire.ReplAck:
			return m, nil
		case *wire.ErrorMsg:
			s.cfg.Logf("replica: standby error: %s", m.Detail)
		default:
			s.cfg.Logf("replica: ignoring %q", msg.Type())
		}
	}
}

// install publishes the live connection for Close to interrupt; it
// refuses when the sender is already closed.
func (s *Sender) install(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conn = conn
	return true
}

// uninstall retires conn and closes it.
func (s *Sender) uninstall(conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	s.mu.Unlock()
	_ = conn.Close()
}

func (s *Sender) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Sender) setAcked(seq uint64) {
	s.mu.Lock()
	if seq > s.acked {
		s.acked = seq
	}
	s.mu.Unlock()
}

// lagRecords computes how many durable records the standby has not yet
// acknowledged.
func (s *Sender) lagRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	tail := s.lastRead
	if s.cfg.Journal != nil {
		tail = s.cfg.Journal.LastSeq()
	}
	if tail <= s.acked {
		return 0
	}
	return int(tail - s.acked)
}

// Close stops the sender: the live connection is torn down and Run
// returns ErrSenderClosed once its current operation unblocks.
func (s *Sender) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// backoff computes the capped exponential backoff with deterministic
// jitter for the k-th retry (1-based), mirroring the agent's schedule.
func backoff(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}
