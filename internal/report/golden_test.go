package report

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRenderMarkdownGolden pins the full RESULTS.md rendering — layout,
// sparklines, number formatting, verdict icons, footer — against a
// checked-in golden file built from a synthetic report that exercises
// every verdict and check kind.
func TestRenderMarkdownGolden(t *testing.T) {
	sets := fixtureSet(
		Check{ID: "pass-point", Kind: "point", Series: "A (Mbps)", X: 0,
			Paper: f(1.6), Want: 2.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75},
			Note: "baseline share"},
		Check{ID: "drift-point", Kind: "point", Series: "A (Mbps)", X: 1,
			Want: 1.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75},
			Note: "halved but trend intact"},
		Check{ID: "fail-ratio", Kind: "ratio", Series: "A (Mbps)", Denom: "B (Mbps)", X: 1,
			Want: 2.0, Pass: stats.Band{Rel: 0.1}, Fail: stats.Band{Rel: 0.2}},
		Check{ID: "missing-series", Kind: "point", Series: "Z", X: 0,
			Want: 1.0, Pass: stats.Band{Rel: 0.1}},
		Check{ID: "cell-zero-want", Kind: "cell", Col: "v", Key: "base",
			Paper: f(0), Want: 10, Pass: stats.Band{Rel: 0.05}},
		Check{ID: "text-flag", Kind: "text", Col: "flag", Key: "base", WantText: "no"},
	)
	snaps := map[string][]*metrics.Snapshot{
		"fig1": {
			{Runs: 1, DurationSecs: 1, ChannelUtilization: 0.8125},
			{Runs: 1, DurationSecs: 1, ChannelUtilization: 0.9375},
		},
	}
	rep, err := Evaluate(sets, map[string]*experiments.Result{"fig1": fixtureResult()}, snaps)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// The fingerprint under `go test` is stable ("devel"), but pin it
	// anyway so the golden file can never depend on build stamping.
	rep.Module = "greedy80211@devel"

	var a, b strings.Builder
	RenderMarkdown(&a, rep, nil)
	RenderMarkdown(&b, rep, nil)
	if a.String() != b.String() {
		t.Fatal("two renders of the same report differ")
	}

	golden := filepath.Join("testdata", "golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(a.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if a.String() != string(want) {
		t.Errorf("rendered markdown differs from %s (re-run with -update after intentional changes)\n--- got ---\n%s",
			golden, a.String())
	}
}

func f(v float64) *float64 { return &v }
