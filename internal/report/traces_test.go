package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/stats"
)

// failReport evaluates the fixture artifact against checks chosen to
// produce one verdict per named severity.
func failReport(t *testing.T, checks ...Check) *Report {
	t.Helper()
	rep, err := Evaluate(fixtureSet(checks...),
		map[string]*experiments.Result{"fig1": fixtureResult()}, nil)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return rep
}

func TestFailedArtifactsSelectsGatingVerdicts(t *testing.T) {
	pass := Check{ID: "p", Kind: "point", Series: "A (Mbps)", X: 0,
		Want: 2.0, Pass: stats.Band{Rel: 0.25}}
	drift := Check{ID: "d", Kind: "point", Series: "A (Mbps)", X: 1,
		Want: 1.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75}}
	fail := Check{ID: "f", Kind: "point", Series: "A (Mbps)", X: 1,
		Want: 4.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75}}

	if got := failReport(t, pass).FailedArtifacts(false); len(got) != 0 {
		t.Errorf("passing artifact listed for capture: %v", got)
	}
	if got := failReport(t, fail).FailedArtifacts(false); len(got) != 1 || got[0] != "fig1" {
		t.Errorf("failing artifact not listed: %v", got)
	}
	// Drift gates only in strict mode, matching cmd/report's exit policy.
	if got := failReport(t, drift).FailedArtifacts(false); len(got) != 0 {
		t.Errorf("drift listed without -strict: %v", got)
	}
	if got := failReport(t, drift).FailedArtifacts(true); len(got) != 1 {
		t.Errorf("drift not listed in strict mode: %v", got)
	}
}

// TestCaptureTracesWritesDumps is the -trace-on-fail post-mortem path: a
// gating artifact is re-run with the flight recorder attached and the
// dump directory receives JSONL traces, ASCII timelines, and an
// invariant summary per artifact.
func TestCaptureTracesWritesDumps(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seeds: 1, Duration: "50ms", Quick: true}
	paths, err := CaptureTraces(cfg, []string{"fig1"}, dir)
	if err != nil {
		t.Fatalf("CaptureTraces: %v", err)
	}
	var jsonl, timeline, inv int
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("reported path missing: %v", err)
		}
		switch {
		case strings.HasSuffix(p, ".trace.jsonl"):
			jsonl++
		case strings.HasSuffix(p, ".timeline.txt"):
			timeline++
		case strings.HasSuffix(p, "_invariants.txt"):
			inv++
		}
	}
	if jsonl == 0 || timeline == 0 || inv != 1 {
		t.Fatalf("dump set incomplete: %d jsonl, %d timelines, %d invariant summaries (%v)",
			jsonl, timeline, inv, paths)
	}
	body, err := os.ReadFile(filepath.Join(dir, "fig1_invariants.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "no invariant violations") {
		t.Errorf("invariant summary = %q, want a clean verdict", body)
	}
}
