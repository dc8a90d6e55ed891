package report

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"greedy80211/internal/experiments"
	"greedy80211/internal/stats"
	"greedy80211/internal/trace"
)

// FailedArtifacts lists the ids of artifacts whose verdict gates (fail or
// missing; drift too in strict mode) — the set CaptureTraces re-runs.
func (r *Report) FailedArtifacts(strict bool) []string {
	var out []string
	for _, ar := range r.Artifacts {
		v := ar.Verdict()
		bad := v == stats.VerdictFail || v == stats.VerdictMissing
		if strict && v == stats.VerdictDrift {
			bad = true
		}
		if bad {
			out = append(out, ar.Artifact)
		}
	}
	return out
}

// CaptureTraces re-runs the named artifacts at the report profile with a
// flight recorder attached and writes the post-mortem evidence into dir:
// per-world JSONL traces, an ASCII timeline each, and an invariant-checker
// summary per artifact. It returns the written file paths. The re-run uses
// the same seeds and duration the gate measured at, and probe emission
// does not perturb the simulation, so the traces show exactly the runs
// that produced the gated numbers.
func CaptureTraces(cfg Config, artifacts []string, dir string) ([]string, error) {
	base, err := cfg.RunConfig()
	if err != nil {
		return nil, err
	}
	var written []string
	for _, id := range artifacts {
		_, recs, err := experiments.RunTraced(id, base, 0)
		var verr *trace.ViolationError
		if err != nil && !errors.As(err, &verr) {
			return written, fmt.Errorf("report: tracing %s: %w", id, err)
		}
		paths, err := trace.ExportDir(dir, id, recs)
		written = append(written, paths...)
		if err != nil {
			return written, err
		}
		inv := filepath.Join(dir, id+"_invariants.txt")
		var body strings.Builder
		if verr == nil {
			fmt.Fprintf(&body, "%s: %d worlds traced, no invariant violations\n",
				id, len(recs))
		} else {
			for _, v := range verr.Violations {
				fmt.Fprintln(&body, v)
			}
		}
		if err := os.WriteFile(inv, []byte(body.String()), 0o644); err != nil {
			return written, fmt.Errorf("report: writing %s: %w", inv, err)
		}
		written = append(written, inv)
	}
	return written, nil
}
