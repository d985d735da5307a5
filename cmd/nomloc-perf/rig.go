package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/nomloc/nomloc/internal/core"
	"github.com/nomloc/nomloc/internal/journal"
	"github.com/nomloc/nomloc/internal/server"
	"github.com/nomloc/nomloc/internal/telemetry"
)

// snapshotEvery is nomloc-server's -journal-snapshot-every default.
const snapshotEvery = 64

// rig is one running server with its journal and the generator attached.
// It is configured as nomloc-server configures it by default: telemetry
// with solve metrics, Workers 0, the default RoundTimeout.
type rig struct {
	in       *inputs
	reg      *telemetry.Registry
	dir      string // journal directory; "" without a journal
	jnl      *journal.Journal
	srv      *server.Server
	serveErr chan error
	gen      *generator
	stray    []string // failures no round claimed, from stopped generators
}

func startRig(in *inputs, dir string) (*rig, error) {
	r := &rig{in: in, reg: telemetry.New(nil), dir: dir}
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := r.openJournal(); err != nil {
			return nil, err
		}
	}
	if err := r.serve(); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func (r *rig) openJournal() error {
	j, err := journal.Open(journal.Options{Dir: r.dir, Clock: time.Now, Telemetry: r.reg})
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	r.jnl = j
	return nil
}

// serve starts a server over the rig's journal and dials the generator.
func (r *rig) serve() error {
	loc, err := core.New(core.Config{Area: r.in.area, Metrics: telemetry.NewSolveMetrics(r.reg)})
	if err != nil {
		return err
	}
	cfg := server.Config{ID: "nomloc-server", Localizer: loc, Telemetry: r.reg, Journal: r.jnl}
	if r.jnl != nil {
		cfg.JournalSnapshotEvery = snapshotEvery
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = srv
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- srv.Serve(ln) }()
	r.gen, err = dial(r.in, ln.Addr().String())
	return err
}

// stopServer shuts the server down first, so it journals no session
// closes, then closes the generator's connections.
func (r *rig) stopServer() error {
	if r.srv == nil {
		return nil
	}
	r.srv.Shutdown()
	err := <-r.serveErr
	r.srv = nil
	if r.gen != nil {
		r.gen.close()
		r.stray = append(r.stray, r.gen.strays()...)
		r.gen = nil
	}
	return err
}

// close stops everything and removes the journal directory.
func (r *rig) close() error {
	err := r.stopServer()
	if r.jnl != nil {
		err = errors.Join(err, r.jnl.Close())
		r.jnl = nil
	}
	if r.dir != "" {
		err = errors.Join(err, os.RemoveAll(r.dir))
	}
	return err
}

// journalStats are the restart diagnostics of one journal directory.
type journalStats struct {
	snapshotMS float64 // median Snapshot of the recovered state
	recoverMS  float64 // median of nine Opens
	verifyMS   float64
	verify     *journal.VerifyResult
}

// measureJournal times a Snapshot of the state ReadState recovers from
// dir (into a throwaway journal beside it, so dir is untouched), nine Opens
// of dir, and one Verify. The directory must not be open.
func measureJournal(dir string, noSync bool) (*journalStats, error) {
	st, _, err := journal.ReadState(dir)
	if err != nil {
		return nil, fmt.Errorf("read state: %w", err)
	}
	snapDir := filepath.Clean(dir) + "-snap"
	defer os.RemoveAll(snapDir)
	sj, err := journal.Open(journal.Options{Dir: snapDir, NoSync: noSync})
	if err != nil {
		return nil, err
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := sj.Snapshot(st); err != nil {
			return nil, errors.Join(err, sj.Close())
		}
		snaps = append(snaps, millis(time.Since(t)))
	}
	if err := sj.Close(); err != nil {
		return nil, err
	}

	var opens []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		j, err := journal.Open(journal.Options{Dir: dir, NoSync: noSync})
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		opens = append(opens, millis(time.Since(t)))
		if err := j.Close(); err != nil {
			return nil, err
		}
	}

	t := time.Now()
	vr, err := journal.Verify(dir)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return &journalStats{
		snapshotMS: median(snaps),
		recoverMS:  median(opens),
		verifyMS:   millis(time.Since(t)),
		verify:     vr,
	}, nil
}

// restart shuts the server down, measures recovery of its journal,
// and restarts the server from that journal with the generator re-dialed.
func (r *rig) restart() (*journalStats, error) {
	if err := r.stopServer(); err != nil {
		return nil, err
	}
	if err := r.jnl.Close(); err != nil {
		return nil, err
	}
	r.jnl = nil
	js, err := measureJournal(r.dir, false)
	if err != nil {
		return nil, err
	}
	if err := r.openJournal(); err != nil {
		return nil, err
	}
	return js, r.serve()
}
