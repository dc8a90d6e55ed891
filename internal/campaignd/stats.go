package campaignd

import (
	"net/http"
	"runtime"
	"sync"
	"time"

	"greedy80211/internal/obs"
)

// serverStats is the observability surface behind GET /metrics
// (Prometheus text), backed by one obs.Registry. Route series are keyed
// by the registered pattern (unmatched requests collapse to
// "unmatched"), so cardinality stays bounded no matter what paths
// clients probe.
type serverStats struct {
	start time.Time
	reg   *obs.Registry

	blobServed      *obs.Counter // 200s off the store (results/metrics/meta/traces/verdicts)
	blobNotModified *obs.Counter // 304s — the warm-reader fast path
	blobMissing     *obs.Counter // 404s for absent keys

	leasesGranted   *obs.Counter
	leasesExpired   *obs.Counter
	leasesCompleted *obs.Counter
	leasesFailed    *obs.Counter
	lateCompletes   *obs.Counter // uploads whose lease had already expired

	tracesRendered *obs.Counter // simulated on demand
	tracesCached   *obs.Counter // served from the backend render cache

	mu     sync.Mutex
	routes map[string]*routeStats
}

// routeStats is one route's latency histogram and error count.
type routeStats struct {
	hist   *obs.Histogram
	errors *obs.Counter
}

const (
	helpRequests = "Request latency by registered route pattern."
	helpErrors   = "Responses with status >= 400 by route pattern."
)

func newServerStats(start time.Time, module string) *serverStats {
	reg := obs.NewRegistry(
		obs.Label{Key: "module", Value: module},
		obs.Label{Key: "go_version", Value: runtime.Version()},
	)
	reg.Gauge("campaignd_build_info",
		"Constant 1; build identity is carried by the module/go_version labels.").Set(1)
	obs.RegisterRuntimeMetrics(reg)
	leases := func(event string) *obs.Counter {
		return reg.Counter("campaignd_leases_total", "Lease-fabric events by type.",
			obs.Label{Key: "event", Value: event})
	}
	reads := func(result string) *obs.Counter {
		return reg.Counter("campaignd_store_reads_total", "Content-addressed reads by outcome.",
			obs.Label{Key: "result", Value: result})
	}
	renders := func(source string) *obs.Counter {
		return reg.Counter("campaignd_trace_renders_total", "Trace renders by source.",
			obs.Label{Key: "source", Value: source})
	}
	return &serverStats{
		start:           start,
		reg:             reg,
		blobServed:      reads("served"),
		blobNotModified: reads("not_modified"),
		blobMissing:     reads("missing"),
		leasesGranted:   leases("granted"),
		leasesExpired:   leases("expired_reissued"),
		leasesCompleted: leases("completed"),
		leasesFailed:    leases("failed"),
		lateCompletes:   leases("late_complete"),
		tracesRendered:  renders("simulated"),
		tracesCached:    renders("cache"),
		routes:          make(map[string]*routeStats),
	}
}

func (s *serverStats) observe(route string, status int, d time.Duration) {
	s.mu.Lock()
	rs := s.routes[route]
	if rs == nil {
		rs = &routeStats{
			hist: s.reg.Histogram("campaignd_request_seconds", helpRequests, nil,
				obs.Label{Key: "route", Value: route}),
			errors: s.reg.Counter("campaignd_request_errors_total", helpErrors,
				obs.Label{Key: "route", Value: route}),
		}
		s.routes[route] = rs
	}
	s.mu.Unlock()
	rs.hist.Observe(d.Seconds())
	if status >= 400 {
		rs.errors.Inc()
	}
}

// statusRecorder captures the response code, byte count, and — set by
// the per-pattern instrument — which registered route matched, for
// latency accounting and access logs. A request no pattern claimed
// leaves route empty and is accounted as "unmatched".
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	route  string
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}
