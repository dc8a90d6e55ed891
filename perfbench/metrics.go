package main

import "greedy80211/internal/report"

// metricDef names one reported metric and its unit; BENCHMARK.json adds
// the direction and bound.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"events_per_s", "1/s"},
	{"units_per_s", "1/s"},
	{"warm_units_per_s", "1/s"},
}

// perLayerMetrics are reported by every traced run, on every workload;
// a layer the workload does not reach reports zero.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim.events_executed", "count"},
		{"sim.events_scheduled", "count"},
		{"sim.pending_peak", "count"},
		{"medium.arrivals", "count"},
		{"medium.avg_neighbors", "count"},
		{"mac.frames", "count"},
		{"mac.tx", "count"},
		{"mac.retries", "count"},
		{"mac.msdu_success", "count"},
		{"mac.success_ratio", "ratio"},
		{"transport.packets", "count"},
		{"transport.delivery_ratio", "ratio"},
		{"scenario.worlds", "count"},
		{"runner.busy_frac", "ratio"},
	}
	sets, err := report.LoadEmbedded()
	if err == nil {
		for _, id := range report.Artifacts(sets) {
			defs = append(defs,
				metricDef{"experiments." + id + ".wall_s", "s"},
				metricDef{"experiments." + id + ".cpu_s", "s"})
		}
	}
	defs = append(defs, []metricDef{
		{"report.evaluate_s", "s"},
		{"report.render_s", "s"},
		{"analytic.predict_s", "s"},
		{"metrics.snapshot_s", "s"},
		{"campaign.store.put_s", "s"},
		{"campaign.store.put_count", "count"},
		{"campaign.store.put_bytes", "B"},
		{"campaign.store.get_s", "s"},
		{"campaign.store.get_count", "count"},
		{"campaign.store.get_bytes", "B"},
		{"campaign.store.list_s", "s"},
		{"campaign.store.stat_s", "s"},
		{"campaign.store.stat_count", "count"},
		{"campaign.expand_s", "s"},
		{"campaign.compute_s", "s"},
		{"campaign.commit_s", "s"},
		{"campaign.journal_bytes", "B"},
		{"campaign.spans_bytes", "B"},
		{"trace.events", "count"},
		{"trace.dropped", "count"},
		{"trace.violations", "count"},
		{"trace.recordings_s", "s"},
	}...)
	for _, layer := range []string{"bench", "scenario", "sim", "metrics", "experiments",
		"analytic", "report", "campaign", "campaign.store", "trace"} {
		defs = append(defs, metricDef{layer + ".self_s", "s"})
	}
	return append(defs, metricDef{"bench.trace_overhead_s", "s"})
}
