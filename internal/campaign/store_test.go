package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// putTestEntry commits a minimal well-formed entry and returns its key.
func putTestEntry(t *testing.T, s *Store, key string) {
	t.Helper()
	result := []byte("{\n  \"id\": \"x\",\n  \"title\": \"t\"\n}\n")
	metricsJSON := []byte("[]\n")
	if err := s.Put(Meta{Key: key, Artifact: "x"}, result, metricsJSON); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func TestStoreRoundTripAndVerify(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if s.Has(key) {
		t.Fatal("Has before Put")
	}
	putTestEntry(t, s, key)
	if !s.Has(key) {
		t.Fatal("Has after Put")
	}
	meta, result, metricsJSON, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Key != key || meta.Artifact != "x" {
		t.Errorf("meta round trip: %+v", meta)
	}
	if !strings.Contains(string(result), "\"id\"") || string(metricsJSON) != "[]\n" {
		t.Errorf("payload round trip: %q / %q", result, metricsJSON)
	}
	if err := s.VerifyEntry(key); err != nil {
		t.Errorf("verify clean entry: %v", err)
	}

	// Re-putting an existing key is a benign no-op (shards racing).
	putTestEntry(t, s, key)

	// Tamper with the payload: verify must notice.
	obj := filepath.Join(s.Root(), "objects", key[:2], key, "result.json")
	if err := os.WriteFile(obj, []byte("{\"id\":\"corrupted\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyEntry(key); err == nil {
		t.Error("verify accepted a tampered entry")
	}
	if bad, err := Verify(s); err != nil || len(bad) != 1 {
		t.Errorf("Verify(store) = %v, %v; want exactly one bad entry", bad, err)
	}

	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if s.Has(key) {
		t.Error("Has after Delete")
	}
}

// TestCheckPayloadsRejects feeds CheckPayloads the malformed payloads a
// worker could upload. Each must be refused, since an accepted result is
// copied verbatim into every assembly.
func TestCheckPayloadsRejects(t *testing.T) {
	const result, metricsJSON = "{\n  \"id\": \"x\",\n  \"title\": \"\"\n}\n", "[]\n"
	if err := CheckPayloads([]byte(result), []byte(metricsJSON)); err != nil {
		t.Fatalf("well-formed payloads rejected: %v", err)
	}
	tests := []struct{ name, result, metrics string }{
		{"result not json", "not json", metricsJSON},
		{"result trailing junk", `{"id":"fig1"} trailing junk`, metricsJSON},
		{"result trailing value", result + `{"id":"fig2"}`, metricsJSON},
		{"metrics trailing value", result, `[] {"oops":1}`},
		{"null snapshot", result, "[null]"},
		{"metrics not an array", result, `{"runs":1}`},
		// The rest decode as a Result but are not the bytes MarshalStable
		// gives for it: encoding/json ignores unknown keys, folds key case
		// and keeps the last of duplicate keys.
		{"unknown key only", `{"oops":1}`, metricsJSON},
		{"empty object", `{}`, metricsJSON},
		{"case-folded key", `{"ID":"fig1"}`, metricsJSON},
		{"duplicate key", `{"id":"x","id":"y"}`, metricsJSON},
		{"unknown key in canonical layout", strings.Replace(result, "{", "{\n  \"oops\": 1,", 1), metricsJSON},
		{"case-folded key in canonical layout", strings.Replace(result, `"id"`, `"ID"`, 1), metricsJSON},
		{"compact layout", `{"id":"x","title":""}`, metricsJSON},
		{"keys reordered", "{\n  \"title\": \"\",\n  \"id\": \"x\"\n}\n", metricsJSON},
		{"no final newline", strings.TrimSuffix(result, "\n"), metricsJSON},
		{"extra final newline", result + "\n", metricsJSON},
		{"empty tables spelled out", strings.Replace(result, "\"\"\n}", "\"\",\n  \"tables\": []\n}", 1), metricsJSON},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := CheckPayloads([]byte(tt.result), []byte(tt.metrics)); err == nil {
				t.Errorf("accepted result %q, metrics %q", tt.result, tt.metrics)
			}
		})
	}
}

func TestOpenStoreSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tmp-dead"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-dead")); !os.IsNotExist(err) {
		t.Error("stale tmp- staging dir survived OpenStore")
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Span{
		{Unit: "fig1", Phase: "start", Key: "k1", Artifact: "fig1", StartUnixNs: 1, EndUnixNs: 1},
		{Unit: "fig1", Phase: "commit", Key: "k1", Artifact: "fig1", StartUnixNs: 2, EndUnixNs: 3},
		{Unit: "fig2_seed7", Phase: "start", Key: "k2", Artifact: "fig2", StartUnixNs: 4, EndUnixNs: 4},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final line mid-record, as a crash during append would.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("ReadSpans after torn tail = %+v, want first two records", got)
	}

	// A missing journal is an empty one.
	if recs, err := ReadSpans(filepath.Join(t.TempDir(), "none.jsonl")); err != nil || recs != nil {
		t.Errorf("missing journal: %v, %v", recs, err)
	}
}

func TestGCKeepsReferencedEntries(t *testing.T) {
	storeDir := t.TempDir()
	spec := testSpec()
	rep, err := Run(context.Background(), spec, Options{StoreDir: storeDir})
	if err != nil || len(rep.Failures) > 0 {
		t.Fatalf("seeding store: %v / %v", err, rep.Failures)
	}
	s, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	stray := strings.Repeat("cd", 32)
	putTestEntry(t, s, stray)

	dry, err := GC(spec, s, true)
	if err != nil {
		t.Fatal(err)
	}
	if dry.Deleted != 1 || dry.Kept != rep.Units {
		t.Fatalf("dry gc: kept %d deleted %d, want %d/1", dry.Kept, dry.Deleted, rep.Units)
	}
	if !s.Has(stray) {
		t.Fatal("dry run deleted the stray entry")
	}

	got, err := GC(spec, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Deleted != 1 || s.Has(stray) {
		t.Errorf("gc left the stray entry (deleted %d)", got.Deleted)
	}
	// Referenced entries survive: a warm rerun is still all hits.
	warm, err := Run(context.Background(), spec, Options{StoreDir: storeDir})
	if err != nil || warm.CacheHits != warm.Units {
		t.Errorf("post-gc rerun: hits %d/%d, err %v", warm.CacheHits, warm.Units, err)
	}
}

func TestStatusReportsDoneAndInFlight(t *testing.T) {
	storeDir := t.TempDir()
	spec := testSpec()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the state: unit 0 committed, unit 1 started but never
	// finished (a crash mid-compute).
	s, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	putTestEntry(t, s, units[0].Key)
	j, err := OpenJournal(s.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, r := range []Span{
		units[0].Span("start", now, now),
		units[0].Span("commit", now, now),
		units[1].Span("start", now, now),
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	st, err := Status(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 {
		t.Fatalf("status length %d", len(st))
	}
	if !st[0].Done || st[0].InFlight {
		t.Errorf("unit 0 status = %+v, want done", st[0])
	}
	if st[1].Done || !st[1].InFlight {
		t.Errorf("unit 1 status = %+v, want in-flight", st[1])
	}
}

// A journal written before the lifecycle spans holds {"op":…} records
// with no phase. It reads as an empty history: Status takes done units
// from the store and reports the rest pending — even a unit the old
// journal shows as started — with no error.
func TestStatusPreSpanJournalReadsEmpty(t *testing.T) {
	storeDir := t.TempDir()
	spec := testSpec()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	putTestEntry(t, s, units[0].Key)
	old := fmt.Sprintf(`{"op":"start","key":%q,"artifact":%q,"base_seed":0}
{"op":"done","key":%q,"artifact":%q,"base_seed":0}
{"op":"start","key":%q,"artifact":%q,"base_seed":0}
{"op":"screened","key":%q,"artifact":%q,"base_seed":0,"prev":"p","note":"n"}
`, units[0].Key, units[0].Artifact, units[0].Key, units[0].Artifact,
		units[1].Key, units[1].Artifact, units[1].Key, units[1].Artifact)
	if err := os.WriteFile(s.JournalPath(), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if spans, err := ReadSpans(s.JournalPath()); err != nil || len(spans) != 0 {
		t.Fatalf("pre-span journal read as %+v, %v; want empty history", spans, err)
	}
	st, err := Status(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	doc := NewStatusDoc(st)
	if doc.Total != 2 || doc.Done != 1 || doc.Pending != 1 || doc.Units[1].State != UnitPending {
		t.Errorf("status over a pre-span journal: %+v", doc)
	}
}
