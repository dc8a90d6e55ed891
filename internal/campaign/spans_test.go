package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

func phasesByName(spans []Span) map[string][]Span {
	out := make(map[string][]Span)
	for _, s := range spans {
		out[s.Phase] = append(out[s.Phase], s)
	}
	return out
}

// A local engine run must record its spans in the lifecycle journal:
// one expand span plus compute and commit spans for every unit it
// simulated — and a warm rerun (all cache hits) adds only another
// expand span, since hits do no work worth timing.
func TestRunWritesLifecycleSpans(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	rep := mustRun(t, spec, Options{StoreDir: dir})

	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	byPhase := phasesByName(spans)
	if len(byPhase["expand"]) != 1 {
		t.Errorf("expand spans: %d, want 1", len(byPhase["expand"]))
	}
	if got := len(byPhase["compute"]); got != rep.Computed {
		t.Errorf("compute spans: %d, want %d", got, rep.Computed)
	}
	if got := len(byPhase["commit"]); got != rep.Computed {
		t.Errorf("commit spans: %d, want %d", got, rep.Computed)
	}
	for _, s := range spans {
		if s.EndUnixNs < s.StartUnixNs {
			t.Errorf("span %s/%s ends before it starts", s.Phase, s.Unit)
		}
		if s.Phase != "expand" && (s.Key == "" || s.Artifact == "") {
			t.Errorf("unit span missing identity: %+v", s)
		}
	}

	mustRun(t, spec, Options{StoreDir: dir})
	spans2, err := ReadSpans(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spans) + 1; len(spans2) != want {
		t.Errorf("warm rerun grew the journal to %d spans, want %d (one more expand)", len(spans2), want)
	}
}

// The journal is tolerant: torn trailing lines, foreign garbage and
// phase-less lines are skipped, and a store without a journal records
// nothing at all.
func TestReadSpansTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Span{Unit: "u1", Phase: "compute", StartUnixNs: 10, EndUnixNs: 5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json at all\n{\"unit\":\"nophase\"}\n{\"unit\":\"torn\",\"phase\":\"comp")
	f.Close()

	spans, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Unit != "u1" {
		t.Fatalf("spans through garbage: %+v", spans)
	}
	if spans[0].EndUnixNs != spans[0].StartUnixNs {
		t.Errorf("backwards span not clamped: %+v", spans[0])
	}

	if got, err := ReadSpans(filepath.Join(dir, "missing.jsonl")); err != nil || got != nil {
		t.Errorf("missing file: %v, %v", got, err)
	}
	if got, err := ReadSpans(""); err != nil || got != nil {
		t.Errorf("no-op path: %v, %v", got, err)
	}

	noop, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	if err := noop.Append(Span{Unit: "x", Phase: "compute"}); err != nil {
		t.Errorf("no-op append: %v", err)
	}
	if err := noop.Close(); err != nil {
		t.Errorf("no-op close: %v", err)
	}
}
