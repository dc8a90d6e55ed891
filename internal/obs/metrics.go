package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Registries also carry constant labels
// (module fingerprint, go version) stamped onto every exposed series, so
// mixed-version fleets are diagnosable from scrapes alone.
type Label struct {
	Key, Value string
}

// labelSignature renders a sorted, unambiguous identity for a label set.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := append([]Label(nil), labels...)
	sort.Slice(s, func(i, j int) bool { return s[i].Key < s[j].Key })
	var b strings.Builder
	for i, l := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; contention on gauges is negligible here).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper bounds in
// ascending order, +Inf implicit) and tracks their sum. Observation is
// lock-free; snapshots are consistent enough for monitoring (bucket
// counts and sum are read without a global lock, so a scrape racing an
// Observe may be off by the in-flight sample — harmless for this use).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    Gauge
}

// NewHistogram builds a standalone histogram (registries build their own
// via Registry.Histogram). Bounds must be ascending and non-empty.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds must ascend (bound %d: %g <= %g)", i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Bounds returns the bucket upper bounds (shared slice; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram, mergeable
// across processes (shards, workers) when bucket layouts match.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is +Inf
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Merge combines two snapshots bucket by bucket. Layouts must match
// exactly — merging histograms with different bounds would silently
// misbin, so it is an error instead.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(s.Bounds) != len(o.Bounds) || len(s.Counts) != len(o.Counts) {
		return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different layouts (%d vs %d buckets)", len(s.Counts), len(o.Counts))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different bounds at %d (%g vs %g)", i, s.Bounds[i], o.Bounds[i])
		}
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// LogBuckets returns n log-spaced bucket bounds starting at min with the
// given ratio between consecutive bounds.
func LogBuckets(min, ratio float64, n int) []float64 {
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}

// DefaultLatencyBuckets spans 100µs to ~13s doubling per bucket — wide
// enough for both a 304 blob read and a multi-second trace re-render.
var DefaultLatencyBuckets = LogBuckets(100e-6, 2, 18)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label // sorted by key

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry owns a process's metrics. Registration is idempotent: asking
// for the same (name, labels) twice returns the same instance, which is
// what lets per-route children materialize lazily without bookkeeping at
// the call sites.
type Registry struct {
	mu     sync.Mutex
	consts []Label
	byID   map[string]*metric
	kinds  map[string]metricKind // name -> kind, for family consistency
	helps  map[string]string
	order  []*metric
}

// NewRegistry builds a registry whose constant labels are stamped onto
// every exposed series.
func NewRegistry(consts ...Label) *Registry {
	sorted := append([]Label(nil), consts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return &Registry{
		consts: sorted,
		byID:   make(map[string]*metric),
		kinds:  make(map[string]metricKind),
		helps:  make(map[string]string),
	}
}

// lookup finds or creates the series. Mixing kinds under one name is a
// programming error and panics immediately rather than rendering a
// malformed exposition later.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, build func() *metric) *metric {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	id := name + "{" + labelSignature(sorted) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byID[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind.promType(), m.kind.promType()))
		}
		return m
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric family %s re-registered as %s (was %s)", name, kind.promType(), k.promType()))
	}
	m := build()
	m.name, m.help, m.kind, m.labels = name, help, kind, sorted
	if _, ok := r.helps[name]; !ok {
		r.helps[name] = help
		r.kinds[name] = kind
	}
	r.byID[id] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is sampled at exposition time
// (lease-table sizes, runtime stats). Re-registering the same series
// replaces the callback.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	m := r.lookup(name, help, kindGaugeFunc, labels, func() *metric {
		return &metric{}
	})
	r.mu.Lock()
	m.gaugeFn = f
	r.mu.Unlock()
}

// Histogram registers (or finds) a histogram series. A nil bounds slice
// uses DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return r.lookup(name, help, kindHistogram, labels, func() *metric {
		h, err := NewHistogram(bounds)
		if err != nil {
			panic("obs: " + err.Error())
		}
		return &metric{hist: h}
	}).hist
}

// snapshotMetrics copies the registration list under the lock so
// exposition can run sample collection outside it.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.order...)
}
