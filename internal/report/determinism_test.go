package report

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"greedy80211/internal/campaign"
	"greedy80211/internal/runner"
	"greedy80211/internal/stats"
)

// quickSets is a tiny real-artifact refdata set (fig2 in quick mode) so
// the determinism tests simulate for milliseconds, not seconds. Bands
// are irrelevant here — both sides of each comparison share them.
func quickSets() []*RefSet {
	return []*RefSet{{
		Artifact: "fig2",
		Claim:    "GS CW pins at CWmin",
		Config:   Config{Seeds: 1, Duration: "200ms", Quick: true},
		Checks: []Check{
			{ID: "gs-cw", Kind: "point", Series: "GS avg CW", X: 0,
				Want: 31, Pass: stats.Band{Rel: 0.25}},
			{ID: "ns-cw", Kind: "point", Series: "NS avg CW", X: 40,
				Want: 31, Pass: stats.Band{Rel: 0.25}},
		},
	}}
}

func renderFresh(t *testing.T, sets []*RefSet) string {
	t.Helper()
	rep, err := ComputeFresh(sets)
	if err != nil {
		t.Fatalf("ComputeFresh: %v", err)
	}
	var md strings.Builder
	RenderMarkdown(&md, rep, nil)
	return md.String()
}

// TestReportSequentialMatchesParallel pins the ISSUE acceptance
// criterion: the rendered report is byte-identical whether artifacts
// regenerate on one worker or many.
func TestReportSequentialMatchesParallel(t *testing.T) {
	sets := quickSets()
	defer runner.SetLimit(runtime.GOMAXPROCS(0))
	runner.SetLimit(1)
	seq := renderFresh(t, sets)
	runner.SetLimit(8)
	par := renderFresh(t, sets)
	if seq != par {
		t.Error("sequential and parallel reports differ byte-wise")
	}
}

// TestEvaluateIndependentOfPoolWidth: Evaluate predicts every set's
// artifact across the runner's pool, so the report and both renderings
// must be byte-identical at widths 1 and 8. One extra model-banded set
// gates an artifact with no predictor; it reads missing at both widths.
func TestEvaluateIndependentOfPoolWidth(t *testing.T) {
	sets, err := LoadEmbedded()
	if err != nil {
		t.Fatalf("LoadEmbedded: %v", err)
	}
	sets = append(sets, &RefSet{
		Artifact: "fig3",
		Claim:    "no model predictor",
		Config:   sets[0].Config,
		Checks: []Check{{ID: "unpredicted", Kind: "point", Series: "ratio", X: 0,
			Want: 0.5, Pass: stats.Band{Rel: 0.1},
			ModelPass: stats.Band{Rel: 0.2}, ModelFail: stats.Band{Rel: 0.5}}},
	})
	defer runner.SetLimit(runner.Limit())
	type out struct {
		md, verdicts string
		modelMissing int
	}
	at := func(width int) out {
		runner.SetLimit(width)
		rep, err := Evaluate(sets, nil, nil)
		if err != nil {
			t.Fatalf("Evaluate at width %d: %v", width, err)
		}
		var md strings.Builder
		RenderMarkdown(&md, rep, nil)
		var v bytes.Buffer
		if err := WriteVerdicts(&v, rep); err != nil {
			t.Fatalf("WriteVerdicts at width %d: %v", width, err)
		}
		return out{md.String(), v.String(), rep.ModelMissing}
	}
	seq, par := at(1), at(8)
	if seq.md != par.md {
		t.Error("RenderMarkdown differs between pool widths 1 and 8")
	}
	if seq.verdicts != par.verdicts {
		t.Error("WriteVerdicts differs between pool widths 1 and 8")
	}
	if seq.modelMissing != 1 || par.modelMissing != 1 {
		t.Errorf("ModelMissing %d at width 1, %d at width 8, want 1 (the unpredicted set)",
			seq.modelMissing, par.modelMissing)
	}
}

// TestReportStoreMatchesFresh pins the other half: a report computed
// through a campaign store (cold, then warm — zero simulation) is
// byte-identical to a storeless fresh run.
func TestReportStoreMatchesFresh(t *testing.T) {
	sets := quickSets()
	fresh := renderFresh(t, sets)

	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	render := func(compute bool) string {
		rep, err := FromStore(context.Background(), sets, store, compute, io.Discard)
		if err != nil {
			t.Fatalf("FromStore(compute=%v): %v", compute, err)
		}
		var md strings.Builder
		RenderMarkdown(&md, rep, nil)
		return md.String()
	}
	cold := render(true)
	warm := render(true)  // all cache hits
	read := render(false) // no-compute read of the warm store
	if cold != fresh {
		t.Error("cold-store report differs from fresh report")
	}
	if warm != cold || read != cold {
		t.Error("warm-store or read-only report differs from cold-store report")
	}
}

// TestFromStoreNoComputeColdGates: a cold store in read-only mode must
// yield gating missing verdicts, not simulate behind CI's back.
func TestFromStoreNoComputeColdGates(t *testing.T) {
	sets := quickSets()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FromStore(context.Background(), sets, store, false, io.Discard)
	if err != nil {
		t.Fatalf("FromStore: %v", err)
	}
	if rep.Missing != 2 || rep.Gating(false) != 2 {
		t.Fatalf("cold read-only store: missing=%d gating=%d, want 2/2", rep.Missing, rep.Gating(false))
	}
}

// TestFromStoreCorruptUnitFails: in a store with one unit absent and
// another present but undecodable, the read-only report fails on the
// corrupt unit instead of counting it as missing with the absent one.
func TestFromStoreCorruptUnitFails(t *testing.T) {
	sets := append(quickSets(), &RefSet{
		Artifact: "tab4",
		Claim:    "fake ACKs split the senders' CW",
		Config:   Config{Seeds: 1, Duration: "200ms", Quick: true},
		Checks: []Check{
			{ID: "s1-cw", Kind: "cell", Table: 0, Row: 0, Col: "S1_avg_cw", Key: "802.11b no GR",
				Want: 120, Pass: stats.Band{Rel: 0.25}},
		},
	})
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromStore(context.Background(), sets, store, true, io.Discard); err != nil {
		t.Fatalf("FromStore(compute=true): %v", err)
	}
	spec := &campaign.Spec{Artifacts: Artifacts(sets),
		Config: campaign.SpecConfig{Seeds: 1, Duration: "200ms", Quick: true}}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	entry := func(u campaign.Unit, file string) string {
		return filepath.Join(dir, "objects", u.Key[:2], u.Key, file)
	}
	if err := os.Remove(entry(units[0], "meta.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry(units[1], "metrics.json"), []byte("[{]"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FromStore(context.Background(), sets, store, false, io.Discard)
	if err == nil {
		t.Fatalf("FromStore over a corrupt unit: nil error, %d of %d checks missing", rep.Missing, rep.Checks())
	}
	if !strings.Contains(err.Error(), units[1].Name()) {
		t.Errorf("error %q does not name the corrupt unit %s", err, units[1].Name())
	}
}
