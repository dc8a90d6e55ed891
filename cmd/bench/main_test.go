package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// committedSnapshot decodes the newest BENCH_*.json at the repo root. The
// decode is local to this test: report.BenchSnapshot deliberately drops
// allocation fields, and the guard below needs them.
func committedSnapshot(t *testing.T) snapshot {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no committed BENCH_*.json: %v %v", matches, err)
	}
	sort.Strings(matches) // BENCH_<ISO date> sorts chronologically
	raw, err := os.ReadFile(matches[len(matches)-1])
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("%s: %v", matches[len(matches)-1], err)
	}
	return snap
}

// TestDisabledTracingAddsNoAllocs is the zero-cost-when-disabled guard:
// the untraced simulator workload must not allocate more per op than the
// committed snapshot recorded (±1% slack for Go-version noise). The MAC
// probe sites and the medium tap hook are on this path, so any
// probe-related allocation that leaks into the disabled case shows up
// here as a regression against history. The baseline is recorded without
// the race detector, whose instrumentation allocates on its own, so the
// guard runs only in non-race builds (CI runs it in a step of its own).
func TestDisabledTracingAddsNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the baseline is a non-race measurement")
	}
	base := committedSnapshot(t)
	if base.Simulator.AllocsPerOp == 0 {
		t.Fatalf("snapshot %s has no simulator allocs baseline", base.Date)
	}
	r := testing.Benchmark(benchSimulatorThroughput)
	got := r.AllocsPerOp()
	limit := base.Simulator.AllocsPerOp + base.Simulator.AllocsPerOp/100
	if got > limit {
		t.Errorf("untraced simulator allocs/op = %d, committed baseline %d (+1%% = %d): "+
			"disabled tracing is no longer free", got, base.Simulator.AllocsPerOp, limit)
	}
	t.Logf("untraced allocs/op = %d (baseline %d)", got, base.Simulator.AllocsPerOp)
}
