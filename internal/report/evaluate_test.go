package report

import (
	"io"
	"math"
	"strings"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/stats"
)

// fixtureResult builds a small synthetic artifact to evaluate against.
func fixtureResult() *experiments.Result {
	res := &experiments.Result{ID: "fig1", Title: "fixture"}
	a := stats.Series{Name: "A (Mbps)"}
	a.Add(0, 2.0)
	a.Add(1, 0.5)
	b := stats.Series{Name: "B (Mbps)"}
	b.Add(0, 2.0)
	b.Add(1, 4.0)
	res.AddSeries("fixture sweep", "x", a, b)
	tab := stats.Table{Header: []string{"case", "v", "flag"}}
	tab.AddRow("base", 10.0, "no")
	res.AddTable(tab)
	return res
}

func fixtureSet(checks ...Check) []*RefSet {
	return []*RefSet{{
		Artifact: "fig1",
		Claim:    "fixture claim",
		Config:   Config{Seeds: 1, Duration: "1s"},
		Checks:   checks,
	}}
}

func evalOne(t *testing.T, c Check) CheckResult {
	t.Helper()
	rep, err := Evaluate(fixtureSet(c),
		map[string]*experiments.Result{"fig1": fixtureResult()}, nil)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return rep.Artifacts[0].Checks[0]
}

func TestEvaluateVerdicts(t *testing.T) {
	cases := []struct {
		name string
		c    Check
		want stats.Verdict
	}{
		{"point in band", Check{ID: "a", Kind: "point", Series: "A (Mbps)", X: 0,
			Want: 2.0, Pass: stats.Band{Rel: 0.25}}, stats.VerdictPass},
		{"point at boundary", Check{ID: "a", Kind: "point", Series: "A (Mbps)", X: 1,
			Want: 0.4, Pass: stats.Band{Abs: 0.1}}, stats.VerdictPass},
		{"point drifts", Check{ID: "a", Kind: "point", Series: "A (Mbps)", X: 1,
			Want: 1.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75}}, stats.VerdictDrift},
		{"point fails", Check{ID: "a", Kind: "point", Series: "A (Mbps)", X: 1,
			Want: 4.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75}}, stats.VerdictFail},
		{"absent series missing", Check{ID: "a", Kind: "point", Series: "Z", X: 0,
			Want: 1, Pass: stats.Band{Rel: 0.5}}, stats.VerdictMissing},
		{"absent x missing", Check{ID: "a", Kind: "point", Series: "A (Mbps)", X: 7,
			Want: 1, Pass: stats.Band{Rel: 0.5}}, stats.VerdictMissing},
		{"ratio", Check{ID: "a", Kind: "ratio", Series: "A (Mbps)", Denom: "B (Mbps)", X: 1,
			Want: 0.125, Pass: stats.Band{Rel: 0.1}}, stats.VerdictPass},
		{"ratio bad denom", Check{ID: "a", Kind: "ratio", Series: "A (Mbps)", Denom: "Z", X: 1,
			Want: 0.125, Pass: stats.Band{Rel: 0.1}}, stats.VerdictMissing},
		{"cell", Check{ID: "a", Kind: "cell", Col: "v", Key: "base",
			Want: 10, Pass: stats.Band{Rel: 0.05}}, stats.VerdictPass},
		{"cell key mismatch missing", Check{ID: "a", Kind: "cell", Col: "v", Key: "other",
			Want: 10, Pass: stats.Band{Rel: 0.05}}, stats.VerdictMissing},
		{"text match", Check{ID: "a", Kind: "text", Col: "flag", Key: "base",
			WantText: "no"}, stats.VerdictPass},
		{"text mismatch fails", Check{ID: "a", Kind: "text", Col: "flag", Key: "base",
			WantText: "yes"}, stats.VerdictFail},
		{"text absent missing", Check{ID: "a", Kind: "text", Col: "nope", Key: "base",
			WantText: "no"}, stats.VerdictMissing},
	}
	for _, tc := range cases {
		if got := evalOne(t, tc.c).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestEvaluateAbsentArtifactGates(t *testing.T) {
	set := fixtureSet(Check{ID: "a", Kind: "point", Series: "A (Mbps)", X: 0,
		Want: 2, Pass: stats.Band{Rel: 0.1}})
	rep, err := Evaluate(set, map[string]*experiments.Result{}, nil)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rep.Missing != 1 || rep.Gating(false) != 1 {
		t.Fatalf("absent artifact: missing=%d gating=%d, want 1/1", rep.Missing, rep.Gating(false))
	}
	if !math.IsNaN(rep.Artifacts[0].Checks[0].Got) {
		t.Errorf("Got = %v, want NaN", rep.Artifacts[0].Checks[0].Got)
	}
}

func TestGatingStrictness(t *testing.T) {
	drift := Check{ID: "d", Kind: "point", Series: "A (Mbps)", X: 1,
		Want: 1.0, Pass: stats.Band{Rel: 0.25}, Fail: stats.Band{Rel: 0.75}}
	pass := Check{ID: "p", Kind: "point", Series: "A (Mbps)", X: 0,
		Want: 2.0, Pass: stats.Band{Rel: 0.25}}
	rep, err := Evaluate(fixtureSet(pass, drift),
		map[string]*experiments.Result{"fig1": fixtureResult()}, nil)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rep.Pass != 1 || rep.Drift != 1 {
		t.Fatalf("tally pass=%d drift=%d, want 1/1", rep.Pass, rep.Drift)
	}
	if rep.Gating(false) != 0 {
		t.Errorf("drift gated in non-strict mode")
	}
	if rep.Gating(true) != 1 {
		t.Errorf("drift did not gate in strict mode")
	}
	if v := rep.Artifacts[0].Verdict(); v != stats.VerdictDrift {
		t.Errorf("artifact verdict %s, want drift (worst of pass+drift)", v)
	}
}

func TestVerdictsJSONStable(t *testing.T) {
	set := fixtureSet(
		Check{ID: "ok", Kind: "point", Series: "A (Mbps)", X: 0, Want: 2, Pass: stats.Band{Rel: 0.1}},
		Check{ID: "gone", Kind: "point", Series: "Z", X: 0, Want: 1, Pass: stats.Band{Rel: 0.1}},
	)
	results := map[string]*experiments.Result{"fig1": fixtureResult()}
	rep, err := Evaluate(set, results, nil)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var a, b strings.Builder
	if err := WriteVerdicts(&a, rep); err != nil {
		t.Fatalf("WriteVerdicts: %v", err)
	}
	if err := WriteVerdicts(&b, rep); err != nil {
		t.Fatalf("WriteVerdicts: %v", err)
	}
	if a.String() != b.String() {
		t.Error("verdicts encoding is not deterministic")
	}
	// NaN measurements must encode as null, not break the encoder.
	if !strings.Contains(a.String(), `"got": null`) {
		t.Errorf("missing check should encode got: null; got:\n%s", a.String())
	}
}

// BenchmarkEvaluate times the report stage over the embedded golden
// sets: Evaluate, then RenderMarkdown and WriteVerdicts. Every
// measurement is missing, so nothing simulates, but every artifact's
// analytic predictions are made — the model tier is most of the stage.
func BenchmarkEvaluate(b *testing.B) {
	sets, err := LoadEmbedded()
	if err != nil {
		b.Fatalf("LoadEmbedded: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Evaluate(sets, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		var md strings.Builder
		RenderMarkdown(&md, rep, nil)
		if err := WriteVerdicts(io.Discard, rep); err != nil {
			b.Fatal(err)
		}
	}
}
