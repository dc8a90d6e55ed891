// Package report is the reproduction gate: it joins regenerated
// artifacts against checked-in paper-reference golden values
// (refdata/*.json), classifies every pinned data point as pass, drift,
// fail, or missing via stats.Classify, and renders a byte-stable
// Markdown report (RESULTS.md) plus a machine-readable verdicts.json.
// The same evaluation backs the CI report-gate: any fail or missing
// verdict (and, in strict mode, drift) makes cmd/report exit nonzero.
//
// Reports are deterministic end to end. Measurements come either from a
// fresh run (ComputeFresh) or from a campaign store (FromStore); both
// yield identical Results for the same profile, and rendering introduces
// no timestamps or environment state beyond core.ModuleFingerprint —
// so regenerating RESULTS.md from a warm store reproduces it
// byte-identically.
package report

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"

	"greedy80211/internal/analytic"
	"greedy80211/internal/campaign"
	"greedy80211/internal/core"
	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/runner"
	"greedy80211/internal/stats"
)

// CheckResult is one evaluated check: the refdata pin plus what the run
// measured and how it classified.
type CheckResult struct {
	Check
	// Got is the measured value (NaN when extraction failed); GotText the
	// measured string for kind "text".
	Got     float64
	GotText string
	Verdict stats.Verdict
	// Model is the analytic tier's prediction for this check (NaN when
	// the check declares no model bands or the prediction is absent), and
	// ModelVerdict its advisory classification against Want under the
	// model bands. ModelVerdict is empty for checks outside the model's
	// declared coverage.
	Model        float64
	ModelVerdict stats.Verdict
}

// ArtifactReport is one gated artifact's evaluation.
type ArtifactReport struct {
	Artifact string
	Title    string
	// Paper is the registry's figure/table locator, Claim the refdata
	// one-liner being gated.
	Paper  string
	Claim  string
	Result *experiments.Result
	// Snapshots is the artifact's telemetry sidecar (one per series
	// group / table batch).
	Snapshots []*metrics.Snapshot
	Checks    []CheckResult
}

// Verdict is the artifact's worst check verdict.
func (a *ArtifactReport) Verdict() stats.Verdict {
	worst := stats.VerdictPass
	for _, c := range a.Checks {
		if verdictRank(c.Verdict) > verdictRank(worst) {
			worst = c.Verdict
		}
	}
	return worst
}

func verdictRank(v stats.Verdict) int {
	switch v {
	case stats.VerdictPass:
		return 0
	case stats.VerdictDrift:
		return 1
	case stats.VerdictFail:
		return 2
	default: // missing
		return 3
	}
}

// Report is a full evaluation across every gated artifact.
type Report struct {
	// Module is the code fingerprint the measurements came from.
	Module string
	// Config is the shared run profile.
	Config    Config
	Artifacts []*ArtifactReport
	// Verdict tallies across all checks.
	Pass, Drift, Fail, Missing int
	// Model verdict tallies across the checks the analytic tier declares
	// coverage of (model bands in refdata). Advisory: they never trip the
	// reproduction gate, but ModelMissing trips -analytic-gate.
	ModelPass, ModelDrift, ModelFail, ModelMissing int
}

// Checks is the total number of evaluated checks.
func (r *Report) Checks() int { return r.Pass + r.Drift + r.Fail + r.Missing }

// ModelChecks is the number of checks under analytic-tier coverage.
func (r *Report) ModelChecks() int {
	return r.ModelPass + r.ModelDrift + r.ModelFail + r.ModelMissing
}

// Gating returns how many verdicts gate (fail + missing, plus drift in
// strict mode) — nonzero means cmd/report exits 1.
func (r *Report) Gating(strict bool) int {
	n := r.Fail + r.Missing
	if strict {
		n += r.Drift
	}
	return n
}

// extract pulls the check's measured value out of the result.
func extract(c Check, res *experiments.Result) (float64, string) {
	switch c.Kind {
	case "point":
		return res.Point(c.Group, c.Series, c.X), ""
	case "ratio":
		num := res.Point(c.Group, c.Series, c.X)
		den := res.Point(c.Group, c.Denom, c.X)
		if den == 0 {
			return math.NaN(), ""
		}
		return num / den, ""
	case "cell":
		return res.Cell(c.Table, c.Row, c.Col, c.Key), ""
	case "text":
		raw, ok := res.CellText(c.Table, c.Row, c.Col, c.Key)
		if !ok {
			return math.NaN(), ""
		}
		return math.NaN(), raw
	}
	return math.NaN(), ""
}

func classify(c Check, got float64, gotText string) stats.Verdict {
	if c.Kind == "text" {
		switch {
		case gotText == "":
			return stats.VerdictMissing
		case gotText == c.WantText:
			return stats.VerdictPass
		default:
			return stats.VerdictFail
		}
	}
	return stats.Classify(got, c.Want, c.Pass, c.Fail)
}

// Evaluate joins the golden sets against measured results. results and
// snaps are keyed by artifact id; a set whose artifact is absent from
// results gets all-missing verdicts rather than an error, so a report
// over a torn store still names exactly what could not be checked.
func Evaluate(sets []*RefSet, results map[string]*experiments.Result,
	snaps map[string][]*metrics.Snapshot) (*Report, error) {
	cfg, err := SharedConfig(sets)
	if err != nil {
		return nil, err
	}
	rep := &Report{Module: core.ModuleFingerprint(), Config: cfg}
	preds := predictAll(sets)
	for i, set := range sets {
		reg, _ := experiments.Lookup(set.Artifact)
		ar := &ArtifactReport{
			Artifact:  set.Artifact,
			Title:     reg.Title,
			Paper:     reg.Paper,
			Claim:     set.Claim,
			Result:    results[set.Artifact],
			Snapshots: snaps[set.Artifact],
		}
		for _, c := range set.Checks {
			got, gotText := math.NaN(), ""
			if ar.Result != nil {
				got, gotText = extract(c, ar.Result)
			}
			v := classify(c, got, gotText)
			cr := CheckResult{Check: c, Got: got, GotText: gotText, Verdict: v, Model: math.NaN()}
			if c.HasModel() {
				model, ok := preds[i][c.ID]
				if ok {
					cr.Model = model
					cr.ModelVerdict = stats.Classify(model, c.Want, c.ModelPass, c.ModelFail)
				} else {
					cr.ModelVerdict = stats.VerdictMissing
				}
				switch cr.ModelVerdict {
				case stats.VerdictPass:
					rep.ModelPass++
				case stats.VerdictDrift:
					rep.ModelDrift++
				case stats.VerdictFail:
					rep.ModelFail++
				default:
					rep.ModelMissing++
				}
			}
			ar.Checks = append(ar.Checks, cr)
			switch v {
			case stats.VerdictPass:
				rep.Pass++
			case stats.VerdictDrift:
				rep.Drift++
			case stats.VerdictFail:
				rep.Fail++
			default:
				rep.Missing++
			}
		}
		rep.Artifacts = append(rep.Artifacts, ar)
	}
	return rep, nil
}

// predictions evaluates the analytic tier for one artifact, keyed by
// check id. Artifacts outside the model's coverage (or a prediction
// failure) yield an empty map: every model-banded check then classifies
// as missing, which is exactly the signal -analytic-gate trips on.
func predictions(artifact string) map[string]float64 {
	pred, err := analytic.Predict(artifact)
	if err != nil {
		return nil
	}
	return pred.Values
}

// predictAll evaluates predictions for every set across the runner's
// pool, collected by set index. Each artifact's solve is independent and
// a pure function of the artifact, so the maps do not depend on the
// pool's width.
func predictAll(sets []*RefSet) []map[string]float64 {
	// No task fails: a failed prediction is an empty map.
	preds, _ := runner.Map(len(sets), func(i int) (map[string]float64, error) {
		return predictions(sets[i].Artifact), nil
	})
	return preds
}

// ComputeFresh regenerates every gated artifact at the shared profile —
// no store, no cache — and evaluates. This is the storeless cmd/report
// path and the one the determinism tests exercise: its output is
// byte-identical to FromStore over the same code.
func ComputeFresh(sets []*RefSet) (*Report, error) {
	cfg, err := SharedConfig(sets)
	if err != nil {
		return nil, err
	}
	base, err := cfg.RunConfig()
	if err != nil {
		return nil, err
	}
	results := make(map[string]*experiments.Result, len(sets))
	snaps := make(map[string][]*metrics.Snapshot, len(sets))
	for _, set := range sets {
		coll := metrics.NewCollector()
		rc := base
		rc.Metrics = coll
		res, err := experiments.Run(set.Artifact, rc)
		if err != nil {
			return nil, err
		}
		results[set.Artifact] = res
		snaps[set.Artifact] = coll.Snapshots()
	}
	return Evaluate(sets, results, snaps)
}

// FromStore evaluates against an open campaign store (any Backend).
// When compute is true, missing units are computed (and cached) first
// via the campaign engine; when false, a cold store yields missing
// verdicts for its artifacts instead of simulating — the read-only CI
// mode.
func FromStore(ctx context.Context, sets []*RefSet, store *campaign.Store, compute bool, logw io.Writer) (*Report, error) {
	cfg, err := SharedConfig(sets)
	if err != nil {
		return nil, err
	}
	spec := &campaign.Spec{
		Artifacts: Artifacts(sets),
		Config: campaign.SpecConfig{
			Seeds:    cfg.Seeds,
			Duration: cfg.Duration,
			Quick:    cfg.Quick,
		},
	}
	if compute {
		crep, err := campaign.Run(ctx, spec, campaign.Options{Store: store, Log: logw})
		if err != nil {
			return nil, err
		}
		if len(crep.Failures) > 0 {
			return nil, crep.Failures[0].Err
		}
	}
	// A partial store still evaluates what is present: Results returns
	// the units it read beside a *MissingUnitsError, and the absent
	// artifacts surface as missing verdicts (which gate). Any other
	// error — a unit that is present but does not read back — fails.
	urs, err := campaign.Results(spec, store)
	var missing *campaign.MissingUnitsError
	if err != nil && !errors.As(err, &missing) {
		return nil, err
	}
	results := make(map[string]*experiments.Result, len(sets))
	snaps := make(map[string][]*metrics.Snapshot, len(sets))
	for _, ur := range urs {
		results[ur.Unit.Artifact] = ur.Result
		snaps[ur.Unit.Artifact] = ur.Snapshots
	}
	return Evaluate(sets, results, snaps)
}

// artifactLess orders artifact ids in registry order (fig2 before
// fig10, figures before tables).
func artifactLess(a, b string) bool {
	idx := artifactIndex()
	ia, aok := idx[a]
	ib, bok := idx[b]
	if aok && bok {
		return ia < ib
	}
	if aok != bok {
		return aok
	}
	return a < b
}

var (
	artifactIdxOnce sync.Once
	artifactIdx     map[string]int
)

func artifactIndex() map[string]int {
	artifactIdxOnce.Do(func() {
		all := experiments.All()
		artifactIdx = make(map[string]int, len(all))
		for i, reg := range all {
			artifactIdx[reg.ID] = i
		}
	})
	return artifactIdx
}
