// Command nomloc-replay inspects and verifies a server's round journal.
// Without flags it performs a read-only recovery and prints a one-line
// summary of what the journal holds. With -verify it re-solves every
// recorded round through the same localization path the live server ran
// and diffs the results bit-exactly against the recorded estimates —
// a non-empty diff means the journal and the solver disagree, which is
// either corruption or a solver regression.
//
// Usage:
//
//	nomloc-replay -journal dir           # summary
//	nomloc-replay -journal dir -verify   # re-solve and diff (exit 1 on diffs)
//	nomloc-replay -journal dir -verify -json
//
// Exit status: 0 clean, 1 verification diffs, 2 unreadable or corrupt
// journal, one written in another format version, or bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/nomloc/nomloc/internal/journal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the -json shape of a non-verify inspection.
type summary struct {
	ServerID   string `json:"serverId"`
	Records    int    `json:"records"`
	LastSeq    uint64 `json:"lastSeq"`
	Objects    int    `json:"objects"`
	Reports    int    `json:"reports"`
	Estimates  int    `json:"estimates"`
	Finished   int    `json:"finished"`
	Segments   int    `json:"segments"`
	TornBytes  int64  `json:"tornBytes"`
	TotalBytes int64  `json:"totalBytes"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nomloc-replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("journal", "", "journal directory (required)")
	verify := fs.Bool("verify", false, "re-solve every recorded round and diff against recorded estimates")
	asJSON := fs.Bool("json", false, "machine-readable output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "nomloc-replay: -journal is required")
		fs.Usage()
		return 2
	}
	if *verify {
		return runVerify(*dir, *asJSON, stdout, stderr)
	}
	return runSummary(*dir, *asJSON, stdout, stderr)
}

// runSummary performs a read-only recovery and reports what the journal
// holds.
func runSummary(dir string, asJSON bool, stdout, stderr io.Writer) int {
	st, stats, err := journal.ReadState(dir)
	if err != nil {
		fmt.Fprintf(stderr, "nomloc-replay: %v\n", err)
		return 2
	}
	size, err := journal.DirSize(dir)
	if err != nil {
		fmt.Fprintf(stderr, "nomloc-replay: %v\n", err)
		return 2
	}
	reports := 0
	for _, oh := range st.History {
		reports += len(oh.Reports)
	}
	sum := summary{
		ServerID:   st.Meta.ServerID,
		Records:    stats.Records,
		LastSeq:    stats.LastSeq,
		Objects:    len(st.History),
		Reports:    reports,
		Estimates:  len(st.Estimates),
		Finished:   len(st.Finished),
		Segments:   stats.Segments,
		TornBytes:  stats.TruncatedBytes,
		TotalBytes: size,
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(stderr, "nomloc-replay: encode: %v\n", err)
			return 2
		}
		return 0
	}
	fmt.Fprintf(stdout, "journal %s: server=%q records=%d lastSeq=%d objects=%d reports=%d estimates=%d finished=%d segments=%d torn=%dB size=%dB\n",
		dir, sum.ServerID, sum.Records, sum.LastSeq, sum.Objects, sum.Reports,
		sum.Estimates, sum.Finished, sum.Segments, sum.TornBytes, sum.TotalBytes)
	return 0
}

// runVerify re-solves the journal and reports diffs.
func runVerify(dir string, asJSON bool, stdout, stderr io.Writer) int {
	vr, err := journal.Verify(dir)
	if err != nil {
		fmt.Fprintf(stderr, "nomloc-replay: verify: %v\n", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(vr); err != nil {
			fmt.Fprintf(stderr, "nomloc-replay: encode: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "verify %s: records=%d rounds=%d resolved=%d skipped=%d torn=%dB diffs=%d\n",
			dir, vr.Records, vr.Rounds, vr.Resolved, vr.Skipped, vr.TornBytes, len(vr.Diffs))
		for _, d := range vr.Diffs {
			fmt.Fprintf(stdout, "  round %d object %s %s: recorded %s, replayed %s\n",
				d.RoundID, d.ObjectID, d.Field, d.Recorded, d.Replayed)
		}
	}
	if !vr.Clean() {
		fmt.Fprintf(stderr, "nomloc-replay: %d estimate(s) diverged from replay\n", len(vr.Diffs))
		return 1
	}
	return 0
}
