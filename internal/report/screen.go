package report

import (
	"fmt"
	"math"

	"greedy80211/internal/campaign"
	"greedy80211/internal/experiments"
)

// ModelAgreement is the screening oracle: it reports whether a measured
// result still agrees with the analytic tier on every model-banded
// check of the artifact's golden set. Agreement means the measured
// value sits inside the check's model_pass band centered on the model's
// prediction — the same half-width that makes a prediction "pass"
// against the golden want, reused to ask whether two oracles (model and
// a stale simulation) tell the same story. Artifacts with no
// model-banded checks never agree: screening only ever stands on an
// explicit model claim.
func ModelAgreement(sets []*RefSet, artifact string, res *experiments.Result) (bool, string) {
	i := setIndex(sets, artifact)
	if i < 0 {
		return false, fmt.Sprintf("no golden set for %s", artifact)
	}
	return agreement(sets[i], predictions(artifact), res)
}

// setIndex returns the index of the first set gating artifact, or -1.
func setIndex(sets []*RefSet, artifact string) int {
	for i, s := range sets {
		if s.Artifact == artifact {
			return i
		}
	}
	return -1
}

// agreement judges res against the set's model-banded checks, given the
// artifact's predictions.
func agreement(set *RefSet, pred map[string]float64, res *experiments.Result) (bool, string) {
	covered := 0
	for _, c := range set.Checks {
		if !c.HasModel() {
			continue
		}
		covered++
		model, ok := pred[c.ID]
		if !ok {
			return false, fmt.Sprintf("%s: no model prediction", c.ID)
		}
		got, _ := extract(c, res)
		if math.IsNaN(got) {
			return false, fmt.Sprintf("%s: value missing from result", c.ID)
		}
		if !c.ModelPass.Holds(got, model) {
			return false, fmt.Sprintf("%s: measured %.4g vs model %.4g outside band ±%.3g",
				c.ID, got, model, c.ModelPass.Width(model))
		}
	}
	if covered == 0 {
		return false, fmt.Sprintf("%s has no model-banded checks", set.Artifact)
	}
	return true, fmt.Sprintf("model agrees on %d/%d model-banded checks", covered, covered)
}

// ModelScreen makes ModelAgreement's judgment a campaign.Options.Screen
// hook: it decodes the previous-module result bytes and asks whether
// the analytic model still vouches for them. Every set's predictions
// are made once, when the hook is built, since they depend on the
// artifact alone.
func ModelScreen(sets []*RefSet) func(u campaign.Unit, prev campaign.Meta, result []byte) (bool, string) {
	preds := predictAll(sets)
	return func(u campaign.Unit, prev campaign.Meta, result []byte) (bool, string) {
		res, err := experiments.DecodeResult(result)
		if err != nil {
			return false, fmt.Sprintf("previous result undecodable: %v", err)
		}
		i := setIndex(sets, u.Artifact)
		if i < 0 {
			return false, fmt.Sprintf("no golden set for %s", u.Artifact)
		}
		ok, why := agreement(sets[i], preds[i], res)
		if ok {
			why = fmt.Sprintf("%s (prev module %s)", why, shortModule(prev.Module))
		}
		return ok, why
	}
}

func shortModule(m string) string {
	if len(m) > 12 {
		return m[:12]
	}
	return m
}
