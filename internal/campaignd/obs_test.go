package campaignd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/obs"
)

// Requests no registered route claims — random paths, wrong methods,
// probe junk — must all collapse into the single "unmatched" route key,
// so hostile clients cannot grow the per-route table without bound.
func TestUnmatchedRoutesCollapseToOneKey(t *testing.T) {
	srv, ts, _ := newTestServer(t, 0, nil)
	rng := rand.New(rand.NewSource(42))
	const probes = 60
	for i := 0; i < probes; i++ {
		path := fmt.Sprintf("/%x/%x", rng.Int63(), rng.Int63())
		method := []string{"GET", "POST", "DELETE"}[i%3]
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Wrong method on a real path is unmatched too (the mux 405s it).
	resp, err := http.Get(ts.URL + "/v1/campaigns/nope/lease")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	srv.stats.mu.Lock()
	defer srv.stats.mu.Unlock()
	routes := srv.stats.routes
	um, ok := routes["unmatched"]
	if !ok || um.hist.Snapshot().Count < probes {
		t.Fatalf("unmatched route series missing or short (want count >= %d)", probes)
	}
	if n := um.errors.Value(); n < probes {
		t.Errorf("unmatched errors = %d, want >= %d (404s count as errors)", n, probes)
	}
	for route := range routes {
		if route != "unmatched" && !strings.HasPrefix(route, "GET ") && !strings.HasPrefix(route, "POST ") {
			t.Errorf("unexpected route key %q — probe paths must not mint keys", route)
		}
	}
	if len(routes) > 3 {
		t.Errorf("request table grew to %d keys", len(routes))
	}
}

// The Prometheus surface must parse under the repo's own lint parser
// and carry the series the runbooks point at: per-route latency
// histograms, lease counters, build identity as constant labels, and
// runtime health gauges.
func TestMetricsExpositionParsesAndCovers(t *testing.T) {
	_, ts, _ := newTestServer(t, 0, nil)
	spec := testSpec()
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w1"}, &lr, 200)
	if lr.Lease == nil {
		t.Fatalf("lease: %+v", lr)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want the v0.0.4 exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePrometheusText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	reqs := prom.Families["campaignd_request_seconds"]
	if reqs == nil || reqs.Type != "histogram" || reqs.Samples == 0 {
		t.Fatalf("campaignd_request_seconds family: %+v", reqs)
	}
	if !regexp.MustCompile(`campaignd_leases_total\{event="granted"[^}]*\} [1-9]`).Match(body) {
		t.Error("campaignd_leases_total{event=\"granted\"} not >= 1 after a grant")
	}
	const leaseRoute = `route="POST /v1/campaigns/\{id\}/lease"`
	if !regexp.MustCompile(`campaignd_request_seconds_bucket\{[^}]*`+leaseRoute+`[^}]*le=`).Match(body) &&
		!regexp.MustCompile(`campaignd_request_seconds_bucket\{[^}]*le=[^}]*`+leaseRoute).Match(body) {
		t.Error("no latency buckets for route \"POST /v1/campaigns/{id}/lease\"")
	}
	if v, ok := prom.Sample("campaignd_build_info"); !ok || v != 1 {
		t.Errorf("campaignd_build_info = %v, %v", v, ok)
	}
	if !regexp.MustCompile(`campaignd_build_info\{[^}]*module="[^"]+"[^}]*\} 1`).Match(body) ||
		!regexp.MustCompile(`campaignd_build_info\{[^}]*go_version="go[^"]*"[^}]*\} 1`).Match(body) {
		t.Error("campaignd_build_info lacks its module/go_version labels")
	}
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes",
		"campaignd_uptime_seconds", "campaignd_leases_active", "campaignd_store_objects"} {
		if _, ok := prom.Sample(name); !ok {
			t.Errorf("missing %s in exposition", name)
		}
	}
}

// /healthz is pure liveness; /readyz must flip to 503 "draining" while
// the listener is still open (the DrainDelay window), so a
// load-balancer — or this test — can observe the drain before
// connections start failing.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:      store,
		DrainDelay: 2 * time.Second,
		Logger:     obs.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body strings.Builder
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			body.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, body.String()
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz before drain: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz before drain: %d %q", code, body)
	}

	cancel()
	deadline := time.Now().Add(2 * time.Second)
	flipped := false
	for time.Now().Before(deadline) {
		code, body := get("/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, `"draining"`) {
			flipped = true
			// Liveness stays green during the drain window.
			if hcode, _ := get("/healthz"); hcode != 200 {
				t.Errorf("healthz during drain: %d", hcode)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Error("readyz never reported draining while the listener was open")
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// twoUnitSpec is testSpec with two base seeds: two units of the same
// artifact, so one completion leaves one pending — the shape the
// progress/ETA assertions need.
func twoUnitSpec() *campaign.Spec {
	s := testSpec()
	s.BaseSeeds = []int64{1, 2}
	return s
}

// completeLease computes a granted unit and uploads it, asserting a
// clean commit.
func completeLease(t *testing.T, ts string, lr *LeaseResponse) {
	t.Helper()
	unit, err := lr.Lease.Unit.Unit()
	if err != nil {
		t.Fatal(err)
	}
	result, metrics, err := campaign.ComputeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	doJSON(t, "POST", ts+"/v1/leases/"+lr.Lease.LeaseID+"/complete",
		CompleteRequest{Key: unit.Key, Result: string(result), Metrics: string(metrics)}, &cr, 200)
	if !cr.Committed || cr.LeaseLost {
		t.Fatalf("complete: %+v", cr)
	}
}

// The progress view must learn per-unit wall time from completions
// (EWMA), project an ETA for the remainder, expose the worker fleet,
// and flip Done only when nothing is pending or leased — while the span
// log beside the journal records the full unit lifecycle.
func TestProgressViewETAWorkersAndSpans(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9000, 0)}
	_, ts, store := newTestServer(t, time.Hour, clock)
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", twoUnitSpec(), &doc, 200)

	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w1"}, &lr, 200)
	if lr.Lease == nil {
		t.Fatalf("lease: %+v", lr)
	}
	clock.advance(5 * time.Second) // the unit "takes" 5s of wall time
	completeLease(t, ts.URL, &lr)

	var prog ProgressDoc
	doJSON(t, "GET", ts.URL+"/v1/progress", nil, &prog, 200)
	if prog.Done {
		t.Error("Done with a unit still pending")
	}
	if len(prog.Campaigns) != 1 {
		t.Fatalf("campaigns: %+v", prog.Campaigns)
	}
	cp := prog.Campaigns[0]
	if cp.Total != 2 || cp.Done != 1 || cp.Pending != 1 || cp.DonePct != 50 {
		t.Fatalf("campaign progress: %+v", cp)
	}
	// One 5s completion, one unit remaining, fleet of one: ETA == EWMA == 5s.
	if len(cp.Artifacts) != 1 || cp.Artifacts[0].UnitSeconds != 5 || cp.Artifacts[0].ETASeconds != 5 {
		t.Fatalf("artifact progress: %+v", cp.Artifacts)
	}
	if cp.ETASeconds != 5 {
		t.Errorf("campaign ETA = %v, want 5", cp.ETASeconds)
	}
	if len(prog.Workers) != 1 || prog.Workers[0].Worker != "w1" ||
		prog.Workers[0].Completed != 1 || prog.Workers[0].ActiveLeases != 0 {
		t.Fatalf("workers: %+v", prog.Workers)
	}

	// Finish the campaign; Done flips and the ETA disappears.
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w2"}, &lr, 200)
	if lr.Lease == nil {
		t.Fatalf("second lease: %+v", lr)
	}
	clock.advance(3 * time.Second)
	completeLease(t, ts.URL, &lr)
	var final ProgressDoc
	doJSON(t, "GET", ts.URL+"/v1/progress", nil, &final, 200)
	if !final.Done || final.Campaigns[0].Done != 2 || final.Campaigns[0].ETASeconds != 0 {
		t.Fatalf("final progress: %+v", final.Campaigns[0])
	}
	// EWMA folded the 3s sample into the 5s estimate: 0.3*3 + 0.7*5.
	if got := final.Campaigns[0].Artifacts[0].UnitSeconds; got < 4.3 || got > 4.5 {
		t.Errorf("EWMA after second unit = %v, want ~4.4", got)
	}

	spans, err := campaign.ReadSpans(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range spans {
		count[s.Phase]++
	}
	if count["expand"] != 1 || count["lease"] != 2 || count["upload"] != 2 || count["commit"] != 2 {
		t.Fatalf("span phases: %v (spans: %+v)", count, spans)
	}
	for _, s := range spans {
		if s.Phase == "lease" && (s.Note != "completed" || s.Worker == "") {
			t.Errorf("lease span: %+v", s)
		}
	}
}
