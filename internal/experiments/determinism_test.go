package experiments

import (
	"strings"
	"testing"

	"greedy80211/internal/metrics"
	"greedy80211/internal/runner"
)

// The parallel experiment engine must be invisible in the output: runs are
// collected by (sweep-point, seed) index, never by completion order, so an
// artifact regenerated on a saturated worker pool is byte-identical to the
// sequential regeneration. Representative artifacts cover a series sweep
// with extracted metrics (fig2), a non-simulation study (tab1), and a
// table-of-cases runner with nested RunSeeds fan-out (abl1).
func TestParallelMatchesSequential(t *testing.T) {
	cfg := RunConfig{Quick: true, Seeds: 3, BaseSeed: 17}
	old := runner.Limit()
	defer runner.SetLimit(old)
	for _, id := range []string{"fig2", "tab1", "abl1"} {
		t.Run(id, func(t *testing.T) {
			runner.SetLimit(1)
			seq, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("sequential %s: %v", id, err)
			}
			runner.SetLimit(8)
			par, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("parallel %s: %v", id, err)
			}
			if seq.String() != par.String() {
				t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, seq.String(), par.String())
			}
		})
	}
}

// The telemetry sidecar must be byte-identical across worker-pool sizes:
// snapshots are collected in completion order, but the Collector emits
// them canonically. fig2 exercises a series sweep with per-point seed
// fan-out; tab1 a table runner.
func TestMetricsSidecarParallelMatchesSequential(t *testing.T) {
	old := runner.Limit()
	defer runner.SetLimit(old)
	emit := func(id string, limit int) string {
		runner.SetLimit(limit)
		col := metrics.NewCollector()
		cfg := RunConfig{Quick: true, Seeds: 3, BaseSeed: 29, Metrics: col}
		if _, err := Run(id, cfg); err != nil {
			t.Fatalf("%s at limit %d: %v", id, limit, err)
		}
		var b strings.Builder
		for i, snap := range col.Snapshots() {
			if err := metrics.EncodeJSONL(&b, metrics.Labeled{Label: id, Group: i, Snap: snap}); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	for _, tc := range []struct {
		id        string
		simulated bool // tab1 is a non-simulation study: no worlds, no telemetry
	}{{"fig2", true}, {"abl1", true}, {"tab1", false}} {
		t.Run(tc.id, func(t *testing.T) {
			seq := emit(tc.id, 1)
			par := emit(tc.id, 8)
			if tc.simulated && seq == "" {
				t.Fatalf("%s: no telemetry collected", tc.id)
			}
			if seq != par {
				t.Errorf("%s: sidecar differs between sequential and parallel runs\n--- sequential ---\n%s\n--- parallel ---\n%s",
					tc.id, seq, par)
			}
		})
	}
}
