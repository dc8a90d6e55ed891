package report

import (
	"strings"
	"testing"

	"greedy80211/internal/analytic"
	"greedy80211/internal/campaign"
	"greedy80211/internal/experiments"
	"greedy80211/internal/stats"
)

// screenFixture builds a one-check golden set whose check ID is a real
// fig1 prediction, plus a result measuring exactly got for it.
func screenFixture(t *testing.T, got float64) ([]*RefSet, *experiments.Result) {
	t.Helper()
	sets := []*RefSet{{
		Artifact: "fig1",
		Claim:    "screen fixture",
		Config:   Config{Seeds: 1, Duration: "1s"},
		Checks: []Check{{
			ID: "fair-baseline-nr", Kind: "point", Series: "A (Mbps)", X: 0,
			Want: 1.9, Pass: stats.Band{Rel: 0.2},
			ModelPass: stats.Band{Rel: 0.2}, ModelFail: stats.Band{Rel: 0.5},
		}},
	}}
	res := &experiments.Result{ID: "fig1", Title: "screen fixture"}
	a := stats.Series{Name: "A (Mbps)"}
	a.Add(0, got)
	res.AddSeries("fixture sweep", "x", a)
	return sets, res
}

func fig1Model(t *testing.T, id string) float64 {
	t.Helper()
	pred, err := analytic.Predict("fig1")
	if err != nil {
		t.Fatalf("analytic.Predict(fig1): %v", err)
	}
	v, ok := pred.Values[id]
	if !ok {
		t.Fatalf("fig1 prediction missing %s", id)
	}
	return v
}

func TestModelAgreement(t *testing.T) {
	model := fig1Model(t, "fair-baseline-nr")

	// Measured value inside the model band around the prediction agrees.
	sets, res := screenFixture(t, model)
	ok, why := ModelAgreement(sets, "fig1", res)
	if !ok {
		t.Fatalf("exact match disagreed: %s", why)
	}

	// Outside the band: disagreement naming the check.
	sets, res = screenFixture(t, model*2)
	ok, why = ModelAgreement(sets, "fig1", res)
	if ok {
		t.Fatal("2x deviation agreed")
	}
	if why == "" || !strings.Contains(why, "fair-baseline-nr") {
		t.Errorf("disagreement reason %q does not name the check", why)
	}

	// An artifact absent from the sets never agrees.
	if ok, _ := ModelAgreement(sets, "fig2", res); ok {
		t.Error("unknown artifact agreed")
	}

	// A set with no model-banded checks never agrees: screening only
	// stands on explicit model claims.
	sets[0].Checks[0].ModelPass = stats.Band{}
	sets[0].Checks[0].ModelFail = stats.Band{}
	if ok, why := ModelAgreement(sets, "fig1", res); ok {
		t.Errorf("model-free set agreed: %s", why)
	}

	// A model-banded check outside the model's prediction coverage
	// blocks agreement rather than silently passing.
	sets, res = screenFixture(t, model)
	sets[0].Checks[0].ID = "no-such-prediction"
	if ok, why := ModelAgreement(sets, "fig1", res); ok {
		t.Errorf("uncovered check agreed: %s", why)
	}
}

func TestModelScreenHook(t *testing.T) {
	model := fig1Model(t, "fair-baseline-nr")
	sets, res := screenFixture(t, model)
	raw, err := res.MarshalStable()
	if err != nil {
		t.Fatalf("MarshalStable: %v", err)
	}
	hook := ModelScreen(sets)
	u := campaign.Unit{Artifact: "fig1"}
	prev := campaign.Meta{Module: "previous-module-fingerprint"}

	ok, why := hook(u, prev, raw)
	if !ok {
		t.Fatalf("hook rejected agreeing result: %s", why)
	}
	if !strings.Contains(why, "previous-mod") {
		t.Errorf("agreement note %q does not cite the previous module", why)
	}

	if ok, _ := hook(u, prev, []byte("not json")); ok {
		t.Error("hook accepted undecodable bytes")
	}
}

// TestModelScreenMatchesAgreement pins the hook's predictions-once path
// to ModelAgreement, which predicts per call: for every unit of a
// two-base-seed campaign at the refdata profile, including one artifact
// with no golden set, both give the same decision and reason.
func TestModelScreenMatchesAgreement(t *testing.T) {
	sets, err := LoadEmbedded()
	if err != nil {
		t.Fatalf("LoadEmbedded: %v", err)
	}
	cfg, err := SharedConfig(sets)
	if err != nil {
		t.Fatal(err)
	}
	spec := &campaign.Spec{
		Artifacts: []string{"fig1", "fig2", "tab4", "extc", "tab3"},
		Config:    campaign.SpecConfig{Seeds: cfg.Seeds, Duration: cfg.Duration, Quick: cfg.Quick},
		BaseSeeds: []int64{1, 2},
	}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	hook := ModelScreen(sets)
	prev := campaign.Meta{Module: "previous-module-fingerprint"}
	agreed := 0
	for _, u := range units {
		raw, _, err := campaign.ComputeUnit(u)
		if err != nil {
			t.Fatalf("%s: %v", u.Name(), err)
		}
		res, err := experiments.DecodeResult(raw)
		if err != nil {
			t.Fatalf("%s: %v", u.Name(), err)
		}
		wantOK, wantWhy := ModelAgreement(sets, u.Artifact, res)
		if wantOK {
			agreed++
			wantWhy += " (prev module previous-mod)"
		}
		if ok, why := hook(u, prev, raw); ok != wantOK || why != wantWhy {
			t.Errorf("%s: screen (%v, %q), ModelAgreement (%v, %q)", u.Name(), ok, why, wantOK, wantWhy)
		}
	}
	t.Logf("%d of %d units agree with the model", agreed, len(units))
	if agreed == 0 || agreed == len(units) {
		t.Errorf("%d of %d units agree: the comparison should cover both decisions", agreed, len(units))
	}
}
