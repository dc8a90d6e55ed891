package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition byte for byte: families
// sorted, constant labels stamped on every series, histogram rendered
// cumulatively with le, escapes applied.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry(Label{Key: "module", Value: `m"1`})
	r.Counter("svc_requests_total", "Requests served.", Label{Key: "route", Value: "GET /v1/progress"}).Add(3)
	r.Counter("svc_requests_total", "Requests served.", Label{Key: "route", Value: "unmatched"}).Add(1)
	r.Gauge("svc_leases_active", "Live leases.").Set(2)
	r.GaugeFunc("svc_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("svc_latency_seconds", "Request latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP svc_latency_seconds Request latency.`,
		`# TYPE svc_latency_seconds histogram`,
		`svc_latency_seconds_bucket{le="0.001",module="m\"1"} 1`,
		`svc_latency_seconds_bucket{le="0.01",module="m\"1"} 2`,
		`svc_latency_seconds_bucket{le="+Inf",module="m\"1"} 3`,
		`svc_latency_seconds_sum{module="m\"1"} 5.0055`,
		`svc_latency_seconds_count{module="m\"1"} 3`,
		`# HELP svc_leases_active Live leases.`,
		`# TYPE svc_leases_active gauge`,
		`svc_leases_active{module="m\"1"} 2`,
		`# HELP svc_requests_total Requests served.`,
		`# TYPE svc_requests_total counter`,
		`svc_requests_total{module="m\"1",route="GET /v1/progress"} 3`,
		`svc_requests_total{module="m\"1",route="unmatched"} 1`,
		`# HELP svc_uptime_seconds Uptime.`,
		`# TYPE svc_uptime_seconds gauge`,
		`svc_uptime_seconds{module="m\"1"} 1.5`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A second render of the same state is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated render differs")
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry(Label{Key: "go_version", Value: "go1.22"})
	r.Counter("rt_hits_total", "hits").Add(7)
	h := r.Histogram("rt_latency_seconds", "latency", nil)
	h.Observe(0.002)
	h.Observe(0.2)
	RegisterRuntimeMetrics(r)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ParsePrometheusText(&buf)
	if err != nil {
		t.Fatalf("own exposition does not lint: %v", err)
	}
	if f := doc.Families["rt_hits_total"]; f == nil || f.Type != "counter" || f.Samples != 1 {
		t.Errorf("rt_hits_total family: %+v", f)
	}
	if f := doc.Families["rt_latency_seconds"]; f == nil || f.Type != "histogram" {
		t.Errorf("rt_latency_seconds family: %+v", f)
	} else if f.Samples != len(DefaultLatencyBuckets)+1+2 { // buckets + +Inf + sum + count
		t.Errorf("histogram samples = %d, want %d", f.Samples, len(DefaultLatencyBuckets)+3)
	}
	if v, ok := doc.Sample("rt_hits_total"); !ok || v != 7 {
		t.Errorf("rt_hits_total sample = %v %v", v, ok)
	}
	if v, ok := doc.Sample("rt_latency_seconds_count"); !ok || v != 2 {
		t.Errorf("histogram count sample = %v %v", v, ok)
	}
	if _, ok := doc.Sample("go_goroutines"); !ok {
		t.Error("runtime metrics missing from exposition")
	}
}

func TestParseRejectsMalformedExpositions(t *testing.T) {
	bad := map[string]string{
		"invalid metric name":  "9metric 1\n",
		"unquoted label value": "m{k=v} 1\n",
		"unterminated label":   "m{k=\"v} 1\n",
		"unknown escape":       `m{k="\q"} 1` + "\n",
		"missing value":        "metric_only\n",
		"bad value":            "m notanumber\n",
		"unknown TYPE":         "# TYPE m sideways\nm 1\n",
		"bucket without le":    "# TYPE h histogram\nh_bucket{x=\"1\"} 1\n",
		"bad timestamp":        "m 1 notatime\n",
		"unbalanced braces":    "m}{ 1\n",
		"invalid label name":   "m{9k=\"v\"} 1\n",
	}
	for name, in := range bad {
		if _, err := ParsePrometheusText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}

	// And the things that must parse.
	good := "# HELP m help text\n# TYPE m counter\nm{a=\"x\\\\y\\n\\\"z\"} 1 1712345678\nm2 +Inf\nm3 NaN\n"
	doc, err := ParsePrometheusText(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if doc.Samples != 3 {
		t.Errorf("samples = %d, want 3", doc.Samples)
	}
}
