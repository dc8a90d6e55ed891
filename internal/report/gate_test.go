package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/scenario"
)

// TestGateCensusGolden runs the reproduction gate in-process — the nine
// gated artifacts at the pinned refdata profile — and pins its event
// census and its verdicts. The counts are those of perfbench's gate
// workload (sim.events_scheduled, medium.arrivals, mac.frames,
// scenario.worlds): a scheduler or medium change that alters how many
// events, arrivals or frames a pass takes fails here before any timing
// does. The verdicts must equal the committed verdicts.json but for the
// module line, which names the binary rather than the measurements.
func TestGateCensusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reproduction gate")
	}
	sets, err := LoadEmbedded()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SharedConfig(sets)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cfg.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	pools := &scenario.PoolReport{}
	results := make(map[string]*experiments.Result, len(sets))
	snaps := make(map[string][]*metrics.Snapshot, len(sets))
	for _, id := range Artifacts(sets) {
		coll := metrics.NewCollector()
		rc := base
		rc.Metrics = coll
		rc.Pools = pools
		if results[id], err = experiments.Run(id, rc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		snaps[id] = coll.Snapshots()
	}

	sum := pools.Sum()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"events scheduled", sum.Events.Gets, 12_371_109},
		{"medium arrivals", sum.Arrivals.Gets, 3_278_760},
		{"MAC frames", sum.Frames.Gets, 1_033_669},
		{"worlds", uint64(pools.Worlds()), 480},
	} {
		if c.got != c.want {
			t.Errorf("gate census: %s = %d, want %d", c.name, c.got, c.want)
		}
	}

	rep, err := Evaluate(sets, results, snaps)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteVerdicts(&got, rep); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "verdicts.json"))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := withoutModule(got.Bytes()), withoutModule(want); g != w {
		t.Errorf("verdicts differ from the committed verdicts.json:\n%s", g)
	}
}

// withoutModule drops the verdicts' "module" line.
func withoutModule(b []byte) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), `"module":`) {
			out.WriteString(line)
		}
	}
	return out.String()
}
