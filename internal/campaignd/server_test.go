package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/core"
	"greedy80211/internal/obs"
	"greedy80211/internal/report"
)

func testSpec() *campaign.Spec {
	return &campaign.Spec{
		Artifacts: []string{"tab3"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
}

// newTestServer stands up a Server over a fresh store and an httptest
// front end. A nil clock uses real time.
func newTestServer(t *testing.T, ttl time.Duration, clock *fakeClock) (*Server, *httptest.Server, *campaign.Store) {
	t.Helper()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, LeaseTTL: ttl, Logger: obs.LogfLogger(t.Logf)}
	if clock != nil {
		cfg.Now = clock.now
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, store
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, base string) *obs.PromDoc {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, err := obs.ParsePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return prom
}

// doJSON posts (or gets, with nil body) and decodes into out, asserting
// the expected status.
func doJSON(t *testing.T, method, url string, in, out any, wantStatus int) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
}

func TestServerBlobConditionalReads(t *testing.T) {
	srv, ts, store := newTestServer(t, 0, nil)
	key := strings.Repeat("ab", 32)
	result := []byte("{\n  \"id\": \"x\",\n  \"title\": \"t\"\n}\n")
	if err := store.Put(campaign.Meta{Key: key, Artifact: "x"}, result, []byte("[]\n")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(body, result) {
		t.Fatalf("cold read: %d %q", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.Contains(resp.Header.Get("Cache-Control"), "immutable") {
		t.Fatalf("headers: ETag=%q Cache-Control=%q", etag, resp.Header.Get("Cache-Control"))
	}

	// Warm read: If-None-Match turns the response into an empty 304.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/results/"+key, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("warm read: %d %q", resp.StatusCode, body)
	}

	// Metrics and meta endpoints serve the same entry.
	resp, err = http.Get(ts.URL + "/v1/metrics/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "[]\n" {
		t.Fatalf("metrics: %d %q", resp.StatusCode, body)
	}
	var meta campaign.Meta
	doJSON(t, "GET", ts.URL+"/v1/meta/"+key, nil, &meta, 200)
	if meta.Key != key || meta.Artifact != "x" {
		t.Fatalf("meta: %+v", meta)
	}

	// Absent keys 404 with an error doc.
	var ed ErrorDoc
	doJSON(t, "GET", ts.URL+"/v1/results/"+strings.Repeat("cd", 32), nil, &ed, 404)
	if ed.Error == "" {
		t.Error("404 without error doc")
	}

	// The metrics surface saw all of it.
	st := srv.stats
	if st.blobServed.Value() < 2 || st.blobNotModified.Value() != 1 || st.blobMissing.Value() != 1 {
		t.Errorf("cache stats: served %d, not modified %d, missing %d",
			st.blobServed.Value(), st.blobNotModified.Value(), st.blobMissing.Value())
	}
	if n, ok := scrape(t, ts.URL).Sample("campaignd_store_objects"); !ok || n != 1 {
		t.Errorf("store objects: %v, %v", n, ok)
	}
}

func TestServerCampaignLifecycle(t *testing.T) {
	_, ts, store := newTestServer(t, 0, nil)
	spec := testSpec()

	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	if doc.ID != SpecID(spec) {
		t.Fatalf("id %q, want %q", doc.ID, SpecID(spec))
	}
	if doc.Status.Total != 1 || doc.Status.Pending != 1 {
		t.Fatalf("fresh campaign status: %+v", doc.Status)
	}
	// Submission is idempotent.
	var doc2 CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc2, 200)
	if doc2.ID != doc.ID {
		t.Fatalf("resubmit changed id: %q vs %q", doc2.ID, doc.ID)
	}

	// Lease the unit; the campaign now reports it leased.
	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w1"}, &lr, 200)
	if lr.Lease == nil || lr.Lease.Unit.Artifact != "tab3" {
		t.Fatalf("lease: %+v", lr)
	}
	if err := lr.Lease.Unit.VerifyKey(); err != nil {
		t.Fatalf("key verification in-process must pass: %v", err)
	}
	doJSON(t, "GET", ts.URL+"/v1/campaigns/"+doc.ID, nil, &doc, 200)
	if doc.Status.Leased != 1 || doc.Status.Pending != 0 {
		t.Fatalf("leased status: %+v", doc.Status)
	}

	// A second worker is told to wait, not granted the same key.
	var lr2 LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w2"}, &lr2, 200)
	if lr2.Lease != nil || lr2.Done || lr2.RetryAfterMs <= 0 {
		t.Fatalf("contended lease: %+v", lr2)
	}

	// Heartbeat, compute, upload.
	var hb HeartbeatResponse
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/heartbeat", nil, &hb, 200)
	if hb.TTLMs <= 0 {
		t.Fatalf("heartbeat: %+v", hb)
	}
	unit, err := lr.Lease.Unit.Unit()
	if err != nil {
		t.Fatal(err)
	}
	result, metrics, err := campaign.ComputeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/complete",
		CompleteRequest{Key: unit.Key, Result: string(result), Metrics: string(metrics)}, &cr, 200)
	if !cr.Committed || cr.LeaseLost {
		t.Fatalf("complete: %+v", cr)
	}
	if !store.Has(unit.Key) {
		t.Fatal("complete did not commit to the store")
	}

	// The campaign is done; the next lease call says so.
	doJSON(t, "GET", ts.URL+"/v1/campaigns/"+doc.ID, nil, &doc, 200)
	if doc.Status.Done != 1 {
		t.Fatalf("final status: %+v", doc.Status)
	}
	var lr3 LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w2"}, &lr3, 200)
	if !lr3.Done {
		t.Fatalf("post-completion lease: %+v", lr3)
	}

	// The result is immediately servable with the content-address ETag.
	resp, err := http.Get(ts.URL + "/v1/results/" + unit.Key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(got, result) {
		t.Fatalf("serving the committed result: %d", resp.StatusCode)
	}
}

func TestServerLeaseExpiryReissueAndLateUpload(t *testing.T) {
	clock := &fakeClock{t: time.Unix(5000, 0)}
	srv, ts, _ := newTestServer(t, 10*time.Second, clock)
	spec := testSpec()

	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	var lr1 LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "dying"}, &lr1, 200)
	if lr1.Lease == nil {
		t.Fatalf("first lease: %+v", lr1)
	}

	// The worker goes silent past the TTL; the next lease request sweeps
	// the corpse and re-issues the same unit.
	clock.advance(11 * time.Second)
	var lr2 LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "healthy"}, &lr2, 200)
	if lr2.Lease == nil || lr2.Lease.Unit.Key != lr1.Lease.Unit.Key {
		t.Fatalf("re-issue: %+v", lr2)
	}
	if lr2.Lease.LeaseID == lr1.Lease.LeaseID {
		t.Fatal("re-issue reused the dead lease id")
	}

	// The dead worker's heartbeat now fails — it must abandon the unit.
	var ed ErrorDoc
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr1.Lease.LeaseID+"/heartbeat", nil, &ed, 404)

	// But its late upload still lands (content-addressed, idempotent),
	// flagged as lease-lost.
	unit, err := lr1.Lease.Unit.Unit()
	if err != nil {
		t.Fatal(err)
	}
	result, metrics, err := campaign.ComputeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr1.Lease.LeaseID+"/complete",
		CompleteRequest{Key: unit.Key, Result: string(result), Metrics: string(metrics)}, &cr, 200)
	if !cr.Committed || !cr.LeaseLost {
		t.Fatalf("late upload: %+v", cr)
	}

	// The healthy worker's duplicate upload is a benign no-op commit.
	cr = CompleteResponse{}
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr2.Lease.LeaseID+"/complete",
		CompleteRequest{Key: unit.Key, Result: string(result), Metrics: string(metrics)}, &cr, 200)
	if !cr.Committed || cr.LeaseLost {
		t.Fatalf("duplicate upload: %+v", cr)
	}

	st := srv.stats
	if st.leasesExpired.Value() < 1 || st.lateCompletes.Value() != 1 || st.leasesCompleted.Value() != 1 {
		t.Errorf("lease stats: expired %d, late %d, completed %d",
			st.leasesExpired.Value(), st.lateCompletes.Value(), st.leasesCompleted.Value())
	}
}

func TestServerUnitFailureRetirement(t *testing.T) {
	srv, ts, _ := newTestServer(t, 0, nil)
	_ = srv
	spec := testSpec()
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)

	// Fail the unit MaxUnitFailures times; afterwards the campaign is
	// exhausted with the unit retired, not re-issued forever.
	for i := 0; i < 3; i++ {
		var lr LeaseResponse
		doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
		if lr.Lease == nil {
			t.Fatalf("attempt %d: %+v", i, lr)
		}
		doJSON(t, "POST", ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/fail",
			FailRequest{Error: fmt.Sprintf("boom %d", i)}, nil, 200)
	}
	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
	if !lr.Done || lr.FailedUnits != 1 {
		t.Fatalf("after retirement: %+v", lr)
	}
	doJSON(t, "GET", ts.URL+"/v1/campaigns/"+doc.ID, nil, &doc, 200)
	if doc.Status.Failed != 1 {
		t.Fatalf("status after retirement: %+v", doc.Status)
	}
}

// Client-supplied strings reach the journal, whose reader takes lines of
// at most 1 MiB. A 2 MiB failure report must be stored truncated (its
// reply unchanged) so the journal stays readable, and a 2 MiB worker
// name must be refused outright.
func TestServerBoundsClientStringsInJournal(t *testing.T) {
	srv, ts, store := newTestServer(t, 0, nil)
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", testSpec(), &doc, 200)
	huge := strings.Repeat("x", 2<<20)

	var ed ErrorDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: huge}, &ed, 400)
	if ed.Error == "" {
		t.Error("400 without error doc")
	}

	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
	if lr.Lease == nil {
		t.Fatalf("lease: %+v", lr)
	}
	var fr struct {
		Failures int  `json:"failures"`
		GivenUp  bool `json:"given_up"`
	}
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/fail", FailRequest{Error: huge}, &fr, 200)
	if fr.Failures != 1 || fr.GivenUp {
		t.Errorf("fail reply: %+v", fr)
	}
	if n := srv.stats.leasesFailed.Value(); n != 1 {
		t.Errorf("failed leases counted %d, want 1", n)
	}

	spans, err := campaign.ReadSpans(store.JournalPath())
	if err != nil {
		t.Fatalf("journal unreadable after an oversized failure report: %v", err)
	}
	count := map[string]int{}
	for _, s := range spans {
		count[s.Phase]++
		if s.Phase == "lease" && (!strings.HasPrefix(s.Note, "failed: xxx") || len(s.Note) > 8<<10) {
			t.Errorf("failed lease note: %d bytes, prefix %.20q", len(s.Note), s.Note)
		}
	}
	if count["expand"] != 1 || count["start"] != 1 || count["lease"] != 1 || len(spans) != 3 {
		t.Errorf("journal phases: %v, want expand, start and lease once each", count)
	}
}

// TestServerRejectsCorruptUpload uploads malformed payloads for a leased
// unit: each must be answered 422 with nothing committed and the lease
// left to the worker, and the well-formed upload that follows must
// commit on time, under that lease.
func TestServerRejectsCorruptUpload(t *testing.T) {
	srv, ts, store := newTestServer(t, time.Minute, nil)
	spec := testSpec()
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
	unit, err := lr.Lease.Unit.Unit()
	if err != nil {
		t.Fatal(err)
	}
	result, metrics, err := campaign.ComputeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	complete := ts.URL + "/v1/leases/" + lr.Lease.LeaseID + "/complete"

	var compact bytes.Buffer
	if err := json.Compact(&compact, result); err != nil {
		t.Fatal(err)
	}
	tests := []struct{ name, result, metrics string }{
		{"result not json", "not json", string(metrics)},
		{"result trailing junk", string(result) + " trailing junk", string(metrics)},
		{"result unknown key", strings.Replace(string(result), "{", `{"oops": 1,`, 1), string(metrics)},
		{"result not canonical", compact.String(), string(metrics)},
		{"metrics trailing value", string(result), `[] {"oops":1}`},
		{"null snapshot", string(result), "[null]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var ed ErrorDoc
			doJSON(t, "POST", complete, CompleteRequest{Key: unit.Key, Result: tt.result, Metrics: tt.metrics}, &ed, 422)
			if ed.Error == "" {
				t.Error("422 without error doc")
			}
			if store.Has(unit.Key) {
				t.Fatal("corrupt upload reached the store")
			}
			if !srv.leases.HasKey(unit.Key) {
				t.Fatal("refused upload dropped the live lease")
			}
		})
	}
	var cr CompleteResponse
	doJSON(t, "POST", complete, CompleteRequest{Key: unit.Key, Result: string(result), Metrics: string(metrics)}, &cr, 200)
	if !cr.Committed || cr.LeaseLost || !store.Has(unit.Key) {
		t.Errorf("well-formed upload after the rejects: %+v, want committed with the lease held", cr)
	}
	if done, late := srv.stats.leasesCompleted.Value(), srv.stats.lateCompletes.Value(); done != 1 || late != 0 {
		t.Errorf("completed %d, late %d; want 1 and 0", done, late)
	}
	if srv.leases.HasKey(unit.Key) {
		t.Error("committed upload left its lease in the table")
	}
}

// A refused upload followed by the worker's Fail is one failed lease:
// the refusal keeps the lease and records nothing, so only Fail counts
// it, in the counter and as one "failed:" span in the journal.
func TestServerRefusedUploadThenFailCountsOnce(t *testing.T) {
	srv, ts, store := newTestServer(t, time.Minute, nil)
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", testSpec(), &doc, 200)
	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
	lease := ts.URL + "/v1/leases/" + lr.Lease.LeaseID
	doJSON(t, "POST", lease+"/complete", CompleteRequest{Key: lr.Lease.Unit.Key, Result: "not json", Metrics: "[]"}, nil, 422)
	doJSON(t, "POST", lease+"/fail", FailRequest{Error: "upload refused"}, nil, 200)

	if n := srv.stats.leasesFailed.Value(); n != 1 {
		t.Errorf("failed leases counted %d, want 1", n)
	}
	spans, err := campaign.ReadSpans(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range spans {
		if s.Phase == "lease" && strings.HasPrefix(s.Note, "failed:") {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("journal holds %d failed lease spans, want 1", failed)
	}
}

func TestServerVerdictsConditional(t *testing.T) {
	_, ts, store := newTestServer(t, 0, nil)
	resp, err := http.Get(ts.URL + "/v1/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("verdicts: %d %s", resp.StatusCode, body)
	}
	var vd struct {
		Missing   int `json:"missing"`
		Artifacts []struct {
			Verdict string `json:"verdict"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(body, &vd); err != nil {
		t.Fatalf("verdicts body: %v", err)
	}
	if vd.Missing == 0 || len(vd.Artifacts) == 0 {
		t.Errorf("empty store must yield missing verdicts: %s", body)
	}
	// The body changes whenever a unit commits, so no cache may keep it
	// without revalidating.
	if cc := resp.Header.Get("Cache-Control"); strings.Contains(cc, "immutable") {
		t.Errorf("verdicts Cache-Control %q says immutable", cc)
	}
	etag := resp.Header.Get("ETag")
	conditional := func() *http.Response {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/v1/verdicts", nil)
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := conditional(); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("stable store, same ETag: %d", resp.StatusCode)
	}

	// Commit one gated unit at the refdata profile: the old ETag must now
	// get the new body.
	sets, err := report.LoadEmbedded()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := report.SharedConfig(sets)
	if err != nil {
		t.Fatal(err)
	}
	spec := &campaign.Spec{
		Artifacts: []string{"fig1"},
		Config:    campaign.SpecConfig{Seeds: cfg.Seeds, Duration: cfg.Duration, Quick: cfg.Quick},
	}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	result, metrics, err := campaign.ComputeUnit(units[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(metaFor(units[0], core.ModuleFingerprint()), result, metrics); err != nil {
		t.Fatal(err)
	}
	resp = conditional()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after a commit, old ETag: %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == "" || got == etag {
		t.Errorf("after a commit, ETag %q, was %q", got, etag)
	}
}

func TestServerTraceRenders(t *testing.T) {
	srv, ts, store := newTestServer(t, 0, nil)
	// fig1 is a simulated artifact, so its render has real recordings
	// (tab3 is analytic and would render an empty-trace note instead).
	spec := &campaign.Spec{
		Artifacts: []string{"fig1"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	u := units[0]
	result, metrics, err := campaign.ComputeUnit(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(metaFor(u, core.ModuleFingerprint()), result, metrics); err != nil {
		t.Fatal(err)
	}

	get := func(url, ifNoneMatch string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("GET", url, nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// First hit renders (re-simulates); the body is a timeline.
	resp, body := get(ts.URL+"/v1/traces/"+u.Key, "")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("===")) {
		t.Fatalf("timeline render: %d %.120q", resp.StatusCode, body)
	}
	// Second hit is served from the backend cache, byte-identical.
	resp2, body2 := get(ts.URL+"/v1/traces/"+u.Key, "")
	if resp2.StatusCode != 200 || !bytes.Equal(body, body2) {
		t.Fatalf("cached render differs")
	}
	// Conditional hit costs nothing.
	resp3, _ := get(ts.URL+"/v1/traces/"+u.Key, resp.Header.Get("ETag"))
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional render: %d", resp3.StatusCode)
	}
	if r, c := srv.stats.tracesRendered.Value(), srv.stats.tracesCached.Value(); r != 1 || c != 1 {
		t.Errorf("trace stats: rendered %d, cached %d", r, c)
	}

	// JSONL format renders each line as a JSON object.
	resp, body = get(ts.URL+"/v1/traces/"+u.Key+"?format=jsonl", "")
	if resp.StatusCode != 200 {
		t.Fatalf("jsonl render: %d", resp.StatusCode)
	}
	line, _, _ := bytes.Cut(body, []byte("\n"))
	var obj map[string]any
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatalf("jsonl first line %q: %v", line, err)
	}

	// Unknown formats are rejected; absent keys 404.
	if resp, _ := get(ts.URL+"/v1/traces/"+u.Key+"?format=chrome", ""); resp.StatusCode != 400 {
		t.Errorf("unknown format: %d", resp.StatusCode)
	}
	if resp, _ := get(ts.URL+"/v1/traces/"+strings.Repeat("ef", 32), ""); resp.StatusCode != 404 {
		t.Errorf("absent key: %d", resp.StatusCode)
	}

	// A module-fingerprint mismatch refuses with 409: the render would
	// not reproduce the stored result.
	skewKey := strings.Repeat("0a", 32)
	skewMeta := metaFor(u, "some-other-module")
	skewMeta.Key = skewKey
	if err := store.Put(skewMeta, result, metrics); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(ts.URL+"/v1/traces/"+skewKey, ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("module skew: %d, want 409", resp.StatusCode)
	}
}

// A request body is one JSON value: a spec with trailing bytes, or two
// specs back to back, is refused rather than registered from the first.
func TestServerRejectsTrailingBody(t *testing.T) {
	_, ts, _ := newTestServer(t, 0, nil)
	spec, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"trailing junk": string(spec) + " trailing",
		"two specs":     string(spec) + string(spec),
		"stray brace":   string(spec) + "}",
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: POST /v1/campaigns = %d, want 4xx", name, resp.StatusCode)
		}
	}
	// The empty body the lease handler accepts still leases.
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", testSpec(), &doc, 200)
	resp, err := http.Post(ts.URL+"/v1/campaigns/"+doc.ID+"/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("empty-body lease = %d, want 200", resp.StatusCode)
	}
}
