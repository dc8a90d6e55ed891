package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/obs"
)

func TestSubcommandExitCodes(t *testing.T) {
	store := t.TempDir()
	out := t.TempDir()
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"help", []string{"help"}, 0},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"run without store", []string{"run", "-artifacts", "tab3"}, 2},
		{"run without spec or artifacts", []string{"run", "-store", store}, 2},
		{"run bad shard", []string{"run", "-store", store, "-artifacts", "tab3", "-shard", "2/2"}, 2},
		{"run unknown artifact", []string{"run", "-store", store, "-artifacts", "fig999"}, 1},
		{"run tab3", []string{"run", "-store", store, "-out", out,
			"-artifacts", "tab3", "-quick", "-duration", "100ms"}, 0},
		{"status", []string{"status", "-store", store,
			"-artifacts", "tab3", "-quick", "-duration", "100ms"}, 0},
		{"gc dry run", []string{"gc", "-store", store, "-dry-run",
			"-artifacts", "tab3", "-quick", "-duration", "100ms"}, 0},
		{"verify sound store", []string{"verify", "-store", store}, 0},
		{"verify without store", []string{"verify"}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
	// The run above must have assembled tab3's result and the sidecar.
	for _, name := range []string{"tab3.json", "metrics.jsonl"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("assembled output %s missing: %v", name, err)
		}
	}
}

func TestVerifyFlagsCorruption(t *testing.T) {
	store := t.TempDir()
	if got := run([]string{"run", "-store", store, "-artifacts", "tab3", "-quick", "-duration", "100ms"}); got != 0 {
		t.Fatalf("seed run exited %d", got)
	}
	objects, err := filepath.Glob(filepath.Join(store, "objects", "*", "*", "result.json"))
	if err != nil || len(objects) != 1 {
		t.Fatalf("objects: %v (%d)", err, len(objects))
	}
	if err := os.WriteFile(objects[0], []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"verify", "-store", store}); got != 1 {
		t.Errorf("verify on a corrupted store exited %d, want 1", got)
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	body := `{"artifacts": ["tab3"], "config": {"seeds": 1, "duration": "100ms", "quick": true}}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if got := run([]string{"run", "-spec", spec, "-store", store}); got != 0 {
		t.Fatalf("run -spec exited %d", got)
	}
	// Typos in a spec must fail loudly, not run the defaults.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"artifact": ["tab3"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"run", "-spec", bad, "-store", store}); got != 2 {
		t.Errorf("run with a misspelled spec field exited %d, want 2", got)
	}
}

func TestShardedRunsCoverDisjointUnits(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	args := func(extra ...string) []string {
		return append([]string{"run", "-store", store,
			"-artifacts", "tab1,tab3", "-quick", "-duration", "100ms"}, extra...)
	}
	if got := run(args("-shard", "0/2")); got != 0 {
		t.Fatalf("shard 0/2 exited %d", got)
	}
	if got := run(args("-shard", "1/2")); got != 0 {
		t.Fatalf("shard 1/2 exited %d", got)
	}
	out := filepath.Join(dir, "out")
	if got := run(args("-out", out)); got != 0 {
		t.Fatalf("merge run exited %d", got)
	}
	b, err := os.ReadFile(filepath.Join(out, "tab1.json"))
	if err != nil || !strings.Contains(string(b), "\"id\": \"tab1\"") {
		t.Errorf("assembled tab1.json wrong: %v / %.60s", err, b)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestStatusJSONMatchesSharedCodec(t *testing.T) {
	store := t.TempDir()
	args := []string{"-store", store, "-artifacts", "tab3", "-quick", "-duration", "100ms"}
	if got := run(append([]string{"run"}, args...)); got != 0 {
		t.Fatalf("seed run exited %d", got)
	}
	out := captureStdout(t, func() {
		if got := run(append([]string{"status", "-json"}, args...)); got != 0 {
			t.Errorf("status -json exited %d", got)
		}
	})
	var doc campaign.StatusDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("status -json is not the shared codec: %v\n%s", err, out)
	}
	if doc.Total != 1 || doc.Done != 1 || doc.Units[0].State != campaign.UnitDone {
		t.Errorf("status doc: %+v", doc)
	}
	if doc.Units[0].Artifact != "tab3" || len(doc.Units[0].Key) != 64 {
		t.Errorf("unit identity: %+v", doc.Units[0])
	}
}

func TestSubmitAndWorkerAgainstServer(t *testing.T) {
	storeDir := t.TempDir()
	st, err := campaign.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{Store: st, Logger: obs.LogfLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	body := `{"artifacts": ["tab3"], "config": {"seeds": 1, "duration": "100ms", "quick": true}}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		if got := run([]string{"submit", "-spec", spec, "-server", ts.URL}); got != 0 {
			t.Errorf("submit exited %d", got)
		}
	})
	lines := strings.Fields(strings.TrimSpace(out))
	id := lines[len(lines)-1]
	if len(id) != 16 {
		t.Fatalf("submit did not print a campaign id: %q", out)
	}

	if got := run([]string{"worker", "-server", ts.URL, "-campaign", id, "-name", "test-worker"}); got != 0 {
		t.Fatalf("worker exited %d", got)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("store after worker: %v keys, %v", keys, err)
	}
	if err := st.VerifyEntry(keys[0]); err != nil {
		t.Errorf("worker-computed entry: %v", err)
	}

	// A second worker on the finished campaign exits clean immediately.
	if got := run([]string{"worker", "-server", ts.URL, "-campaign", id}); got != 0 {
		t.Errorf("worker on a done campaign exited %d", got)
	}

	// The live progress view over the same server: -follow exits 0 as
	// soon as the server reports everything complete.
	out = captureStdout(t, func() {
		if got := run([]string{"status", "-server", ts.URL, "-follow", "-every", "10ms"}); got != 0 {
			t.Errorf("status -follow exited %d", got)
		}
	})
	if !strings.Contains(out, "campaign "+id) || !strings.Contains(out, "all campaigns complete") {
		t.Errorf("status -follow output:\n%s", out)
	}
	if !strings.Contains(out, "test-worker") {
		t.Errorf("status -follow shows no worker fleet:\n%s", out)
	}

	// The lifecycle journal the server wrote renders as a Chrome trace
	// (Perfetto-loadable): one JSON object with traceEvents carrying the
	// unit lifecycle, on the worker's named track.
	traceFile := filepath.Join(dir, "spans.json")
	if got := run([]string{"spans", "-store", storeDir, "-out", traceFile}); got != 0 {
		t.Fatalf("spans exited %d", got)
	}
	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("spans output is not Chrome trace JSON: %v", err)
	}
	cats := map[string]int{}
	trackNamed := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			cats[ev.Cat]++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("negative span timing: %+v", ev)
			}
		}
		if ev.Name == "thread_name" {
			if name, _ := ev.Args["name"].(string); name == "test-worker" {
				trackNamed = true
			}
		}
	}
	if cats["expand"] != 1 || cats["lease"] != 1 || cats["upload"] != 1 || cats["commit"] != 1 {
		t.Errorf("span categories: %v", cats)
	}
	if !trackNamed {
		t.Error("no track named after the worker")
	}
}

func TestServerSubcommandFlagValidation(t *testing.T) {
	if got := run([]string{"submit", "-spec", "x.json"}); got != 2 {
		t.Errorf("submit without -server exited %d, want 2", got)
	}
	if got := run([]string{"worker", "-server", "http://x"}); got != 2 {
		t.Errorf("worker without -campaign exited %d, want 2", got)
	}
	if got := run([]string{"status"}); got != 2 {
		t.Errorf("status without -store or -server exited %d, want 2", got)
	}
	if got := run([]string{"spans"}); got != 2 {
		t.Errorf("spans without -store exited %d, want 2", got)
	}
	if got := run([]string{"spans", "-store", t.TempDir()}); got != 1 {
		t.Errorf("spans on an empty store exited %d, want 1", got)
	}
}
