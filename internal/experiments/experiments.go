// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections V, VI, and VIII). Each artifact has a registered
// runner keyed by its id ("fig1" … "fig24", "tab1" … "tab9"); runners
// build the matching scenario, run it over several seeds, and emit the
// same rows or series the paper reports.
//
// Absolute numbers differ from the paper's ns-2/testbed values (different
// substrate); the shapes — who wins, by what factor, where the crossovers
// fall — are the reproduction target. EXPERIMENTS.md records both.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"greedy80211/internal/metrics"
	"greedy80211/internal/runner"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/trace"
)

// RunConfig controls how much work each runner does.
type RunConfig struct {
	// Seeds is how many seeded repetitions feed each median (the paper
	// uses 5). Zero means the default.
	Seeds int
	// BaseSeed offsets every seed.
	BaseSeed int64
	// Duration is the simulated time per run. Zero means the default.
	Duration sim.Time
	// Quick trims sweeps to a few representative points (for benchmarks
	// and smoke tests).
	Quick bool
	// Metrics, when non-nil, collects one telemetry snapshot (seed-median
	// of every world's per-station counters) per RunSeeds invocation — the
	// sidecar the cmds write next to the artifact output. The collector
	// canonicalizes ordering, so parallel and sequential runs of the same
	// artifact produce identical sidecars.
	Metrics *metrics.Collector
	// Trace, when non-nil, attaches a flight recorder to every world the
	// artifact builds (one recording per world, keyed by seed); see
	// RunTraced. Like Metrics, the collector canonicalizes ordering, so
	// trace exports are byte-identical across parallel widths. Probe
	// emission consumes no randomness and schedules no events, so the
	// artifact numbers are unchanged.
	Trace *trace.Collector
	// Pools, when non-nil, folds every world's end-of-run pool occupancy
	// (frame/packet arenas, arrival arena, event slab) into the report as
	// seeds finish. Pool telemetry is an stdout-only observability
	// surface: it never enters metrics sidecars or result JSON, which
	// stay byte-identical whether or not Pools is set.
	Pools *scenario.PoolReport
}

// Defaults applied by normalize.
const (
	DefaultSeeds    = 5
	DefaultDuration = 5 * sim.Second
)

// Normalize fills defaulted fields in. It is idempotent, and it is the
// canonical form the campaign engine hashes when building cache keys:
// two configs that normalize identically describe the same work.
func (c RunConfig) Normalize() RunConfig {
	if c.Seeds == 0 {
		if c.Quick {
			c.Seeds = 1
		} else {
			c.Seeds = DefaultSeeds
		}
	}
	if c.Duration == 0 {
		if c.Quick {
			c.Duration = 2 * sim.Second
		} else {
			c.Duration = DefaultDuration
		}
	}
	return c
}

// Result is one regenerated artifact. The json tags define the stable
// machine-readable encoding (see WriteJSON) used by `-json` output and as
// the campaign store's value format.
type Result struct {
	ID     string        `json:"id"`
	Title  string        `json:"title"`
	Tables []stats.Table `json:"tables,omitempty"`
	Series []SeriesGroup `json:"series,omitempty"`
}

// SeriesGroup is a set of curves sharing an x-axis.
type SeriesGroup struct {
	Caption string         `json:"caption,omitempty"`
	XLabel  string         `json:"x_label"`
	Series  []stats.Series `json:"series"`
}

// AddTable appends a table to the result.
func (r *Result) AddTable(t stats.Table) { r.Tables = append(r.Tables, t) }

// AddSeries appends a series group to the result.
func (r *Result) AddSeries(caption, xLabel string, series ...stats.Series) {
	r.Series = append(r.Series, SeriesGroup{Caption: caption, XLabel: xLabel, Series: series})
}

// String renders the artifact as text.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, g := range r.Series {
		if g.Caption != "" {
			b.WriteString(g.Caption)
			b.WriteByte('\n')
		}
		b.WriteString(stats.FormatSeries(g.XLabel, g.Series...))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVFiles renders the artifact's tables and series groups as CSV
// documents keyed by a suggested file name (<id>_<kind><k>.csv), for
// plotting.
func (r *Result) CSVFiles() (map[string]string, error) {
	out := make(map[string]string, len(r.Tables)+len(r.Series))
	for i, t := range r.Tables {
		doc, err := t.CSV()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s table %d: %w", r.ID, i, err)
		}
		out[fmt.Sprintf("%s_table%d.csv", r.ID, i+1)] = doc
	}
	for i, g := range r.Series {
		doc, err := stats.SeriesCSV(g.XLabel, g.Series...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s series %d: %w", r.ID, i, err)
		}
		out[fmt.Sprintf("%s_series%d.csv", r.ID, i+1)] = doc
	}
	return out, nil
}

// Runner regenerates one artifact.
type Runner func(cfg RunConfig) (*Result, error)

// Registration describes one artifact in the registry.
type Registration struct {
	ID    string
	Title string
	// Paper locates the artifact in the source paper: the figure or
	// table it regenerates plus the section carrying the claim, or an
	// extension/ablation marker for studies beyond the paper. cmd/report
	// joins this against the refdata golden values and the EXPERIMENTS.md
	// artifact↔paper mapping table is generated from it.
	Paper  string
	Runner Runner
}

var (
	registry     = map[string]Registration{}
	registerOnce sync.Once
)

// ensureRegistered populates the registry on first use (explicit lazy
// registration instead of init functions).
func ensureRegistered() {
	registerOnce.Do(func() {
		registerNAV()
		registerSpoof()
		registerFake()
		registerAnalytic()
		registerTestbed()
		registerDetection()
		registerAutoRate()
		registerBaseline()
		registerAblation()
		registerDense()
	})
}

func register(id, title, paper string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Registration{ID: id, Title: title, Paper: paper, Runner: r}
}

// Lookup finds a registered artifact by id.
func Lookup(id string) (Registration, bool) {
	ensureRegistered()
	r, ok := registry[id]
	return r, ok
}

// All lists every registered artifact sorted by id (figures first, then
// tables, each numerically).
func All() []Registration {
	ensureRegistered()
	out := make([]Registration, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return artifactKey(out[i].ID) < artifactKey(out[j].ID)
	})
	return out
}

// artifactKey sorts "fig2" before "fig10" and figures before tables.
func artifactKey(id string) string {
	kind, num := id, 0
	for i, c := range id {
		if c >= '0' && c <= '9' {
			kind = id[:i]
			fmt.Sscanf(id[i:], "%d", &num)
			break
		}
	}
	return fmt.Sprintf("%s-%04d", kind, num)
}

// Run executes one artifact by id.
func Run(id string, cfg RunConfig) (*Result, error) {
	reg, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown artifact %q", id)
	}
	return reg.Runner(cfg)
}

// RunTraced runs one artifact with a flight recorder on every world,
// each keeping its last capacity events (<= 0 selects the recorder
// default), and returns the recordings in canonical order. Every world
// is checked live against the 802.11 access invariants: if any breaks
// one, the error is a *trace.ViolationError and the result and
// recordings come with it, so the caller can still export the evidence.
// Any other error comes alone.
func RunTraced(id string, cfg RunConfig, capacity int) (*Result, []*trace.Recording, error) {
	cfg.Trace = trace.NewCollector(capacity)
	res, err := Run(id, cfg)
	if err != nil {
		return nil, nil, err
	}
	recs := cfg.Trace.Recordings()
	return res, recs, trace.Check(recs)
}

// --- shared runners -------------------------------------------------------

// seedRun is one seed's extraction: per-flow goodputs, any named metrics,
// and the world's telemetry snapshot when a collector is attached.
type seedRun struct {
	flows   map[int]float64
	metrics map[string]float64
	snap    *metrics.Snapshot
}

// RunSeeds builds and runs the scenario once per seed (BaseSeed+1 …
// BaseSeed+Seeds, each for Duration; cfg should be normalized), extracting
// per-flow goodputs and any additional metrics, then reduces each to its
// median. It is the one loop that builds and runs a world per seed: every
// artifact runner, greedysim and the examples go through it.
// Seeds run concurrently on the runner pool (each world is an independent
// single-goroutine simulation); results are merged in seed order, so the
// medians are identical to a sequential run. When cfg.Metrics is set, the
// seed-median telemetry snapshot of the worlds is added to the collector.
func RunSeeds(cfg RunConfig, build func(seed int64) (*scenario.World, error),
	extract func(w *scenario.World, metrics map[string]float64)) (map[int]float64, map[string]float64, error) {
	runs, err := runner.Map(cfg.Seeds, func(i int) (seedRun, error) {
		seed := cfg.BaseSeed + int64(i) + 1
		w, err := build(seed)
		if err != nil {
			return seedRun{}, err
		}
		if cfg.Trace != nil {
			w.AttachTrace(cfg.Trace.Start(seed))
		}
		w.Run(cfg.Duration)
		r := seedRun{flows: make(map[int]float64)}
		for _, fl := range w.Flows() {
			r.flows[fl.ID] = fl.GoodputMbps(cfg.Duration)
		}
		if extract != nil {
			r.metrics = make(map[string]float64)
			extract(w, r.metrics)
		}
		if cfg.Metrics != nil {
			r.snap = w.MetricsSnapshot()
		}
		if cfg.Pools != nil {
			cfg.Pools.Add(w.PoolStats())
		}
		return r, nil
	})
	if err != nil {
		return nil, nil, err
	}
	perFlow := make(map[int][]float64)
	perMetric := make(map[string][]float64)
	var snaps []*metrics.Snapshot
	for _, r := range runs {
		for id, v := range r.flows {
			perFlow[id] = append(perFlow[id], v)
		}
		for k, v := range r.metrics {
			perMetric[k] = append(perMetric[k], v)
		}
		if r.snap != nil {
			snaps = append(snaps, r.snap)
		}
	}
	if cfg.Metrics != nil {
		if merged := metrics.MedianSnapshots(snaps); merged != nil {
			cfg.Metrics.Add(merged)
		}
	}
	flows := make(map[int]float64, len(perFlow))
	for id, vals := range perFlow {
		flows[id] = stats.Median(vals)
	}
	mets := make(map[string]float64, len(perMetric))
	for k, vals := range perMetric {
		mets[k] = stats.Median(vals)
	}
	return flows, mets, nil
}

// baseAttPoint pairs one sweep point's baseline and attack per-flow
// goodputs (the recurring no-GR / with-GR comparison).
type baseAttPoint struct {
	base, att map[int]float64
}

// sweep runs body(x) for every sweep value concurrently on the runner pool
// and returns the per-point results in sweep order. The bodies themselves
// typically call RunSeeds, which fans out further; nesting is safe and the
// ordering of the returned slice — and therefore of every series point and
// table row derived from it — matches the sequential loop it replaces.
func sweep[X any, T any](xs []X, body func(x X) (T, error)) ([]T, error) {
	return runner.Map(len(xs), func(i int) (T, error) { return body(xs[i]) })
}

// lastGreedy returns specs for n stations whose last k run policy p: the
// "last k receivers misbehave" placement of the pairs experiments. A zero
// p leaves every station compliant.
func lastGreedy(n, k int, p scenario.PolicySpec) []scenario.StationSpec {
	specs := make([]scenario.StationSpec, n)
	for i := n - k; i < n; i++ {
		specs[i].Policy = p
	}
	return specs
}

// pick trims a sweep to representative points in Quick mode: first, one
// middle, and last.
func pick(cfg RunConfig, full []float64) []float64 {
	if !cfg.Quick || len(full) <= 3 {
		return full
	}
	return []float64{full[0], full[len(full)/2], full[len(full)-1]}
}
