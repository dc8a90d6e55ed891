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
	var set *RefSet
	for _, s := range sets {
		if s.Artifact == artifact {
			set = s
			break
		}
	}
	if set == nil {
		return false, fmt.Sprintf("no golden set for %s", artifact)
	}
	pred := predictions(artifact)
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
		return false, fmt.Sprintf("%s has no model-banded checks", artifact)
	}
	return true, fmt.Sprintf("model agrees on %d/%d model-banded checks", covered, covered)
}

// ModelScreen adapts ModelAgreement into a campaign.Options.Screen
// hook: it decodes the previous-module result bytes and asks whether
// the analytic model still vouches for them.
func ModelScreen(sets []*RefSet) func(u campaign.Unit, prev campaign.Meta, result []byte) (bool, string) {
	return func(u campaign.Unit, prev campaign.Meta, result []byte) (bool, string) {
		res, err := experiments.DecodeResult(result)
		if err != nil {
			return false, fmt.Sprintf("previous result undecodable: %v", err)
		}
		ok, why := ModelAgreement(sets, u.Artifact, res)
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
