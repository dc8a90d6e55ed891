package client_test

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/campaignd/client"
	"greedy80211/internal/obs"
)

// syncBuffer lets the server's handler goroutines and the test share a
// log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// A request id set on the worker's context must ride the X-Request-ID
// header into the server's access log, and the lease id minted by the
// server must come back and scope the client's own compute logs — the
// full correlation round trip, verified over a real lease→complete
// cycle through both binaries' logging stacks.
func TestCorrelationIDsPropagateClientToServer(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var serverLog syncBuffer
	logger, err := obs.NewLogger(&serverLog, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{Store: store, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var clientLog syncBuffer
	clogger, err := obs.NewLogger(&clientLog, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	c := &client.Client{BaseURL: ts.URL, Logger: clogger}

	const reqID = "corr-roundtrip-0123"
	ctx := obs.WithRequestID(context.Background(), reqID)
	spec := &campaign.Spec{
		Artifacts: []string{"tab3"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
	doc, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wstats, err := c.Work(ctx, doc.ID, "w-obs")
	if err != nil || wstats.Computed != 1 {
		t.Fatalf("work: %+v, %v", wstats, err)
	}

	srvLines := serverLog.String()
	if !regexp.MustCompile(`"request_id":"` + reqID + `"`).MatchString(srvLines) {
		t.Errorf("server access log never saw the client's request id %q:\n%s", reqID, srvLines)
	}
	// The lease id the client logged its compute under must be the same
	// one the server granted and committed.
	m := regexp.MustCompile(`"lease_id":"([A-Za-z0-9_.-]+)"`).FindStringSubmatch(clientLog.String())
	if m == nil {
		t.Fatalf("client log carries no lease id:\n%s", clientLog.String())
	}
	if !regexp.MustCompile(`"msg":"committed unit".*"lease_id":"` + m[1] + `"`).MatchString(srvLines) {
		t.Errorf("server commit log does not carry lease id %s:\n%s", m[1], srvLines)
	}

	// Header echo: a well-formed caller-supplied id comes back verbatim;
	// garbage is replaced with a fresh server-minted one.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "my.custom-ID_42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my.custom-ID_42" {
		t.Errorf("valid id not echoed: %q", got)
	}
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id with spaces!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || got == "bad id with spaces!" {
		t.Errorf("invalid id not replaced: %q", got)
	}
}
