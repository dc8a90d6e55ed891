package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one journal line: an interval in a campaign unit's lifecycle,
// written once the interval is over (a span is never open on disk, so a
// crash cannot tear one). Phases:
//
//	expand    campaign spec expanded into units (Unit = campaign id)
//	start     zero-length write-ahead mark: the unit is about to be computed
//	lease     a worker held the unit, grant to completion/expiry
//	compute   the unit's simulations ran (local engine)
//	upload    result bytes travelled worker -> server
//	commit    the store entry landed; closes the unit's start
//	screened  the analytic model vouched for the unit; no compute
//
// A start with no later commit marks a unit that was in flight when the
// process died.
type Span struct {
	Unit        string `json:"unit"`               // unit name, or campaign id for expand spans
	Key         string `json:"key,omitempty"`      // store key, when known
	Artifact    string `json:"artifact,omitempty"` // figure/table the unit feeds
	Phase       string `json:"phase"`
	Worker      string `json:"worker,omitempty"` // lease holder, distributed runs only
	StartUnixNs int64  `json:"start_unix_ns"`
	EndUnixNs   int64  `json:"end_unix_ns"`
	Note        string `json:"note,omitempty"` // disposition detail: "expired", screening reason, ...
	Prev        string `json:"prev,omitempty"` // screened only: the previous-module entry vouched for
}

// Span returns the unit's span of phase over [start, end].
func (u Unit) Span(phase string, start, end time.Time) Span {
	return Span{Unit: u.Name(), Key: u.Key, Artifact: u.Artifact, Phase: phase,
		StartUnixNs: start.UnixNano(), EndUnixNs: end.UnixNano()}
}

// Journal is the store's append-only lifecycle log, one Span per line.
// The store itself is the source of truth for what is computed (entries
// commit atomically); the journal adds history — which units were
// attempted, which were in flight at a crash, where the time went — for
// status reporting, `campaign spans` and crash diagnosis. Resume
// therefore survives a truncated or deleted journal: units are
// re-validated against the store.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. An empty path returns a no-op journal — stores on backends
// without a local disk run unjournaled (the store itself stays the
// source of truth; only the history is lost).
func OpenJournal(path string) (*Journal, error) {
	if path == "" {
		return &Journal{}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append writes one span as a single line. Safe for concurrent use by
// the worker pool. A span ending before it starts is clamped to zero
// duration rather than rejected (clock skew is telemetry noise, not an
// error).
func (j *Journal) Append(s Span) error {
	if j.f == nil {
		return nil
	}
	if s.EndUnixNs < s.StartUnixNs {
		s.EndUnixNs = s.StartUnixNs
	}
	line, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// ReadSpans loads every well-formed span from the journal at path. A
// missing file (or the empty path of a no-op journal) is an empty
// history. Torn lines (a crash mid-append), foreign lines and lines
// without a phase are skipped, not errors — so a journal written before
// spans, whose records carry an "op" instead, reads as empty.
func ReadSpans(path string) ([]Span, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Phase == "" {
			continue
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return spans, fmt.Errorf("campaign: reading journal: %w", err)
	}
	return spans, nil
}
