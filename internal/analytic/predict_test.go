package analytic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"greedy80211/internal/analytic"
	"greedy80211/internal/report"
)

// loadRefSets maps artifact id -> golden set for the calibration checks.
func loadRefSets(t *testing.T) map[string]*report.RefSet {
	t.Helper()
	sets, err := report.LoadEmbedded()
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*report.RefSet, len(sets))
	for _, s := range sets {
		byID[s.Artifact] = s
	}
	return byID
}

// Every prediction must target a real check of a real artifact: a typo'd
// check id would silently produce a "missing" model verdict in the report
// instead of the intended prediction.
func TestPredictionsTargetRealChecks(t *testing.T) {
	sets := loadRefSets(t)
	for _, artifact := range analytic.PredictedArtifacts() {
		set, ok := sets[artifact]
		if !ok {
			t.Errorf("Predict covers %q which has no refdata set", artifact)
			continue
		}
		checkIDs := make(map[string]string, len(set.Checks))
		banded := make(map[string]bool, len(set.Checks))
		for _, c := range set.Checks {
			checkIDs[c.ID] = c.Kind
			if c.HasModel() {
				banded[c.ID] = true
			}
		}
		pred, err := analytic.Predict(artifact)
		if err != nil {
			t.Errorf("%s: %v", artifact, err)
			continue
		}
		if pred.Artifact != artifact {
			t.Errorf("%s: prediction labeled %q", artifact, pred.Artifact)
		}
		if len(pred.Values) == 0 {
			t.Errorf("%s: empty prediction", artifact)
		}
		for id, v := range pred.Values {
			kind, ok := checkIDs[id]
			if !ok {
				t.Errorf("%s: predicted check %q does not exist in refdata", artifact, id)
				continue
			}
			if kind == "text" {
				t.Errorf("%s/%s: numeric prediction for a text check", artifact, id)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s/%s: prediction %v not finite", artifact, id, v)
			}
			// Coverage must be declared: a prediction without model bands
			// would never be evaluated by the report.
			if !banded[id] {
				t.Errorf("%s/%s: prediction has no model bands in refdata", artifact, id)
			}
			delete(banded, id)
		}
		// And the converse: a model-banded check without a prediction
		// yields a missing model verdict, which fails -analytic-gate.
		for id := range banded {
			t.Errorf("%s/%s: refdata declares model bands but Predict returns no value", artifact, id)
		}
		for _, sc := range pred.Scenarios {
			if sc.Label == "" || sc.Result == nil {
				t.Errorf("%s: scenario missing label or result", artifact)
			}
		}
	}
}

// Predict must be deterministic: the report gate diffs its output
// byte-for-byte and the screening pass compares across runs.
func TestPredictDeterministic(t *testing.T) {
	for _, artifact := range analytic.PredictedArtifacts() {
		a, err := analytic.Predict(artifact)
		if err != nil {
			t.Fatal(err)
		}
		b, err := analytic.Predict(artifact)
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range a.Values {
			if b.Values[id] != v {
				t.Errorf("%s/%s: %v != %v across calls", artifact, id, v, b.Values[id])
			}
		}
	}
}

// predictionGolden is the SHA-256 over json.Marshal(Predict(id)) for
// every PredictedArtifacts id in order. Any change to a single bit of
// any prediction — a value, a scenario's solved operating point, an
// iteration count — moves it, so a speed-up of the model tier must leave
// it alone. A deliberate model change updates it with MODEL.md.
const predictionGolden = "f6ae194de9a556acefcca2b8991fbd28ed3359388add7442d354ad46e75466d3"

func TestPredictionGolden(t *testing.T) {
	h := sha256.New()
	for _, artifact := range analytic.PredictedArtifacts() {
		pred, err := analytic.Predict(artifact)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pred)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != predictionGolden {
		t.Errorf("prediction hash %s, want %s", got, predictionGolden)
	}
}

// BenchmarkPredict times one Predict per gated artifact, and "all" one
// round over every artifact — what the report gate does once per run.
func BenchmarkPredict(b *testing.B) {
	artifacts := analytic.PredictedArtifacts()
	for _, artifact := range artifacts {
		b.Run(artifact, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analytic.Predict(artifact); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, artifact := range artifacts {
				if _, err := analytic.Predict(artifact); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func TestPredictUnknownArtifact(t *testing.T) {
	if _, err := analytic.Predict("fig999"); err == nil {
		t.Error("unknown artifact accepted")
	}
}

// TestPredictCalibration prints the model-vs-golden table (the source of
// MODEL.md §6) and enforces the documented worst-case model error per
// covered check. Bands here are the analytic model's own accuracy
// envelope against the checked-in golden (simulated) values — reruns of
// this test catch model regressions without running the simulator.
func TestPredictCalibration(t *testing.T) {
	sets := loadRefSets(t)
	verbose := os.Getenv("CALIBRATION") != "" || testing.Verbose()
	for _, artifact := range analytic.PredictedArtifacts() {
		set := sets[artifact]
		if set == nil {
			continue // TestPredictionsTargetRealChecks reports this
		}
		pred, err := analytic.Predict(artifact)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, len(pred.Values))
		for id := range pred.Values {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			var check *report.Check
			for i := range set.Checks {
				if set.Checks[i].ID == id {
					check = &set.Checks[i]
					break
				}
			}
			if check == nil {
				continue
			}
			model := pred.Values[id]
			delta := model - check.Want
			relErr := math.Abs(delta)
			if check.Want != 0 {
				relErr = math.Abs(delta) / math.Abs(check.Want)
			}
			if verbose {
				fmt.Printf("%-6s %-26s model=%10.4f want=%10.4f delta=%+9.4f rel=%6.1f%%\n",
					artifact, id, model, check.Want, delta, relErr*100)
			}
		}
	}
}
