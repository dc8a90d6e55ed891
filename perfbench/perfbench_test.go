package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/report"
	"greedy80211/internal/sim"
)

// smallDense is a grid small enough for a unit test.
var smallDense = denseShape{
	cells: 9, stations: 5, uplink: 2, rateBps: 2e5,
	run: 200 * sim.Millisecond, slice: 20 * sim.Millisecond,
}

// subsetProfile is the pinned gate profile over a few cheap artifacts.
func subsetProfile(t *testing.T, ids ...string) profile {
	t.Helper()
	p, err := loadProfile()
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{}
	for _, id := range ids {
		keep[id] = true
	}
	var sets []*report.RefSet
	for _, s := range p.sets {
		if keep[s.Artifact] {
			sets = append(sets, s)
		}
	}
	if len(sets) != len(ids) {
		t.Fatalf("profile has %d of the artifacts %v", len(sets), ids)
	}
	p.sets, p.ids = sets, report.Artifacts(sets)
	return p
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name, 1, "..", t.TempDir()); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

// The sliced dense run must end exactly where one World.Run of the same
// duration ends: slicing is how the benchmark samples the heap, and it
// must not perturb the simulation.
func TestDenseSlicedMatchesSingleRun(t *testing.T) {
	single, err := buildDense(smallDense, 7)
	if err != nil {
		t.Fatal(err)
	}
	single.Run(smallDense.run)
	sliced, err := buildDense(smallDense, 7)
	if err != nil {
		t.Fatal(err)
	}
	if peak := runSliced(sliced, smallDense, nil); peak == 0 {
		t.Error("pending peak is zero")
	}
	if a, b := single.Sched.Executed(), sliced.Sched.Executed(); a != b || a == 0 {
		t.Fatalf("single run executed %d events, sliced %d", a, b)
	}
	a, _ := json.Marshal(single.MetricsSnapshot())
	b, _ := json.Marshal(sliced.MetricsSnapshot())
	if !bytes.Equal(a, b) {
		t.Fatal("sliced run ends with a different MetricsSnapshot")
	}
}

// passes runs untraced, traced, untraced passes of w and returns them.
func passes(t *testing.T, w workload) []sample {
	t.Helper()
	tr := newTracer()
	var out []sample
	for i, ptr := range []*tracer{nil, tr, nil} {
		ptr.beginPass(i)
		if _, err := w.setup(ptr); err != nil {
			t.Fatal(err)
		}
		s, err := w.pass(ptr)
		if err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		out = append(out, s)
	}
	if len(tr.spans) < 2 {
		t.Error("traced pass recorded no spans")
	}
	return out
}

// assertSameCensus checks that every pass, traced or not, counted the
// same work.
func assertSameCensus(t *testing.T, ss []sample, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if ss[0].census[k] == 0 {
			t.Errorf("census %s is zero", k)
		}
	}
	for i, s := range ss[1:] {
		if err := sameCensus(ss[0].census, s.census); err != nil {
			t.Errorf("pass %d: %v", i+1, err)
		}
	}
}

func TestDenseCensusRepeats(t *testing.T) {
	d := &denseBench{shape: smallDense, seed: 3}
	ss := passes(t, d)
	assertSameCensus(t, ss, "sim.events_executed", "sim.events_scheduled", "sim.pending_peak",
		"medium.arrivals", "medium.avg_neighbors", "mac.frames", "mac.tx", "mac.msdu_success",
		"transport.packets", "transport.delivery_ratio", "scenario.worlds")
	if ss[1].layer["metrics.snapshot_s"] == 0 {
		t.Error("traced pass did not time the snapshot")
	}
}

func TestGateCensusRepeats(t *testing.T) {
	prof := subsetProfile(t, "extc", "tab4")
	var ss []sample
	tr := newTracer()
	for i, ptr := range []*tracer{nil, tr, nil} {
		ptr.beginPass(i)
		s, rep, verdicts, err := runGate(prof, ptr)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Checks() == 0 || rep.Pass != rep.Checks() || len(verdicts) == 0 {
			t.Fatalf("pass %d: %d/%d checks pass", i, rep.Pass, rep.Checks())
		}
		ss = append(ss, s)
	}
	assertSameCensus(t, ss, "sim.events_scheduled", "medium.arrivals", "mac.frames",
		"mac.tx", "transport.packets", "scenario.worlds")
	if ss[1].layer["analytic.predict_s"] == 0 || ss[1].layer["report.evaluate_s"] == 0 {
		t.Error("traced pass did not time the report stage")
	}
}

func TestForensicsCensusRepeats(t *testing.T) {
	ss := passes(t, &fixedProfile{&forensicsBench{}, subsetProfile(t, "extc", "tab4")})
	assertSameCensus(t, ss, "sim.events_scheduled", "trace.events", "scenario.worlds")
	if ss[0].census["trace.violations"] != 0 {
		t.Error("invariant violations")
	}
	if ss[1].layer["trace.recordings_s"] == 0 {
		t.Error("traced pass did not time the recordings read-out")
	}
}

// fixedProfile runs the forensics workload over a given profile.
type fixedProfile struct {
	*forensicsBench
	prof profile
}

func (f *fixedProfile) setup(*tracer) (time.Duration, error) {
	f.forensicsBench.prof = f.prof
	return time.Millisecond, nil
}

func newTestCampaign(t *testing.T) *campaignBench {
	return &campaignBench{
		spec: &campaign.Spec{
			Artifacts: []string{"fig18"},
			Config:    campaign.SpecConfig{Seeds: 1, Duration: "200ms"},
			BaseSeeds: []int64{5},
		},
		work: t.TempDir(),
	}
}

// Within a run, the store-decoded MAC census repeats on every pass; the
// direct replay's counts are made once per run, so two runs of one seed
// must agree on them.
func TestCampaignCensusRepeats(t *testing.T) {
	ss := passes(t, newTestCampaign(t))
	assertSameCensus(t, ss, "mac.tx", "mac.msdu_success")
	l := ss[1].layer
	for _, k := range []string{"campaign.store.put_count", "campaign.store.get_count",
		"campaign.compute_s", "campaign.journal_bytes", "campaign.spans_bytes"} {
		if l[k] == 0 {
			t.Errorf("traced pass reports %s = 0", k)
		}
	}

	again := passes(t, newTestCampaign(t))
	first, second := ss[0].perRun, again[0].perRun
	for _, k := range []string{"sim.events_scheduled", "medium.arrivals", "mac.frames",
		"transport.packets", "scenario.worlds"} {
		if first[k] == 0 {
			t.Errorf("replay count %s is zero", k)
		}
	}
	if err := sameCensus(first, second); err != nil {
		t.Errorf("second run's replay: %v", err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, layer: "bench", start: 0, end: 100 * ms},
		{id: 2, parent: 1, pass: 1, layer: "bench", start: 0, end: 100 * ms},
		{id: 3, parent: 2, pass: 1, layer: "campaign", start: 10 * ms, end: 60 * ms},
		// two overlapping store calls cover 20..50 of the campaign span
		{id: 4, parent: 3, pass: 1, layer: "campaign.store", start: 20 * ms, end: 40 * ms},
		{id: 5, parent: 3, pass: 1, layer: "campaign.store", start: 30 * ms, end: 50 * ms},
	}
	got := selfTimes(spans, 1)
	want := map[string]time.Duration{"bench": 50 * ms, "campaign": 20 * ms, "campaign.store": 40 * ms}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		head []float64
		want string
	}{
		{shift(1.01), "within bound"},
		{shift(1.2), "worse"},
		{shift(0.8), "better"},
		{[]float64{5, 15, 5, 15, 5, 15}, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(base, c.head, false, 0.1); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.head, got, c.want)
		}
	}
	if got := verdict(base, shift(1.2), true, 0.1); got != "better" {
		t.Errorf("higher-is-better verdict = %s, want better", got)
	}
}
