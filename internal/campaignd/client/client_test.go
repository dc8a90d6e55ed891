package client_test

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/campaignd/client"
	"greedy80211/internal/obs"
)

func TestClientRetriesTransientFailures(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ttl_ms":100}`)
	}))
	defer ts.Close()

	c := &client.Client{BaseURL: ts.URL, Retries: 4, RetryBase: time.Millisecond, Logger: obs.LogfLogger(t.Logf)}
	if err := c.Heartbeat(context.Background(), "l1"); err != nil {
		t.Fatalf("heartbeat through transient 500s: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two 500s then success)", got)
	}

	// Exhausted retries surface the underlying error.
	attempts.Store(-100)
	c.Retries = 2
	if err := c.Heartbeat(context.Background(), "l1"); err == nil {
		t.Error("heartbeat against a permanently wedged server succeeded")
	}
}

func TestClientDoesNotRetryDeliberateRejections(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(campaignd.ErrorDoc{Error: "lease expired or unknown"})
	}))
	defer ts.Close()

	c := &client.Client{BaseURL: ts.URL, Retries: 5, RetryBase: time.Millisecond}
	err := c.Heartbeat(context.Background(), "l1")
	if err == nil || !client.IsNotFound(err) {
		t.Fatalf("err = %v, want a not-found API error", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d; 4xx must not be retried", got)
	}
}

// TestWorkerSurvivesRefusedUpload: a server that refuses every upload
// with a 422 must not stop the worker. Each refusal is reported as a
// unit failure, the worker leases the unit again, and once the server
// retires the unit Work returns the failed-beyond-retry error, not the
// upload error.
func TestWorkerSurvivesRefusedUpload(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{
		Store:           store,
		MaxUnitFailures: 2,
		Logger:          obs.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var refused atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/complete") {
			refused.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(campaignd.ErrorDoc{Error: "corrupt upload"})
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx := context.Background()
	c := &client.Client{BaseURL: ts.URL, RetryBase: time.Millisecond, Logger: obs.LogfLogger(t.Logf)}
	doc, err := c.Submit(ctx, &campaign.Spec{
		Artifacts: []string{"tab3"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	wstats, err := c.Work(ctx, doc.ID, "refused-worker")
	if err == nil || !strings.Contains(err.Error(), "failed beyond retry") {
		t.Fatalf("Work = %v, want the failed-beyond-retry error (stats %+v)", err, wstats)
	}
	if wstats.Failed != 2 || wstats.Computed != 0 || refused.Load() != 2 {
		t.Errorf("stats %+v after %d refused uploads, want 2 failed, 0 computed, 2 refusals",
			wstats, refused.Load())
	}
}

// readTree loads every file under dir keyed by relative slash path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("readTree %s: %v", dir, err)
	}
	return out
}

// TestWorkerFanOutEndToEnd is the acceptance test for the serve/compute
// split: a campaign submitted over HTTP, computed by two workers — one
// of which dies mid-unit and has its lease expire and re-issue — must
// assemble byte-identically to a sequential `campaign run`, and a warm
// conditional read of a served result must cost a 304.
func TestWorkerFanOutEndToEnd(t *testing.T) {
	storeDir := t.TempDir()
	store, err := campaign.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{
		Store:    store,
		LeaseTTL: 300 * time.Millisecond, // short so the dead worker's unit re-issues fast
		Logger:   obs.LogfLogger(t.Logf),
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
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	base := "http://" + ln.Addr().String()

	spec := &campaign.Spec{
		Artifacts: []string{"extc", "fig1"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
	c := &client.Client{BaseURL: base, Logger: obs.LogfLogger(t.Logf)}
	doc, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status.Total != 2 || doc.Status.Pending != 2 {
		t.Fatalf("submitted campaign: %+v", doc.Status)
	}

	// Worker 1 takes a lease and dies mid-unit: it never heartbeats,
	// never completes, never even fails — exactly a SIGKILL.
	dead, err := c.Lease(ctx, doc.ID, "doomed-worker")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Lease == nil {
		t.Fatalf("doomed worker got no lease: %+v", dead)
	}

	// Worker 2 runs the real Work loop. It computes the free unit
	// immediately, waits out the dead worker's lease, then computes the
	// re-issued unit too.
	wstats, err := c.Work(ctx, doc.ID, "healthy-worker")
	if err != nil {
		t.Fatalf("work loop: %v (stats %+v)", err, wstats)
	}
	if wstats.Computed != 2 {
		t.Fatalf("healthy worker computed %d units, want 2 (one re-issued); stats %+v", wstats.Computed, wstats)
	}

	doc, err = c.Campaign(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status.Done != 2 {
		t.Fatalf("campaign after fan-out: %+v", doc.Status)
	}

	// The lease fabric must have actually expired and re-issued the
	// doomed worker's unit.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`campaignd_leases_total\{event="expired_reissued"[^}]*\} [1-9]`).Match(prom) {
		t.Errorf("no lease expired:\n%s", prom)
	}

	// Assembling from the worker-filled store is pure cache hits and
	// byte-identical to a fresh sequential run of the same spec.
	outHTTP := t.TempDir()
	rep, err := campaign.Run(context.Background(), spec, campaign.Options{Store: store, OutDir: outHTTP})
	if err != nil || len(rep.Failures) > 0 {
		t.Fatalf("assemble: %v / %v", err, rep.Failures)
	}
	if rep.Computed != 0 || rep.CacheHits != 2 {
		t.Fatalf("assemble recomputed: %+v", rep)
	}
	outSeq := t.TempDir()
	seqRep, err := campaign.Run(context.Background(), spec, campaign.Options{StoreDir: t.TempDir(), OutDir: outSeq})
	if err != nil || len(seqRep.Failures) > 0 {
		t.Fatalf("sequential reference: %v / %v", err, seqRep.Failures)
	}
	got, want := readTree(t, outHTTP), readTree(t, outSeq)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("assembled trees differ in shape: %d vs %d files", len(got), len(want))
	}
	for name, wantBody := range want {
		if got[name] != wantBody {
			t.Errorf("%s: worker-computed assembly differs from sequential run", name)
		}
	}

	// Warm conditional read: a second GET with the ETag is a 304.
	key := dead.Lease.Unit.Key
	resp, err = http.Get(base + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cold result read: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", base+"/v1/results/"+key, nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("warm result read: %d %q", resp2.StatusCode, body)
	}
}
