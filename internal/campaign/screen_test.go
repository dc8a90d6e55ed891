package campaign

import (
	"context"
	"strings"
	"testing"

	"greedy80211/internal/core"
)

// plantPrevious commits a fake previous-module entry for u: same
// artifact and normalized config, a synthetic key, and the given module
// fingerprint and creation time.
func plantPrevious(t *testing.T, store *Store, u Unit, key, module string, created int64) Meta {
	t.Helper()
	result, metricsJSON, err := ComputeUnit(u)
	if err != nil {
		t.Fatalf("ComputeUnit: %v", err)
	}
	meta := Meta{
		Key:         key,
		Module:      module,
		Artifact:    u.Artifact,
		Seeds:       u.Config.Seeds,
		BaseSeed:    u.Config.BaseSeed,
		DurationNs:  int64(u.Config.Duration),
		Quick:       u.Config.Quick,
		CreatedUnix: created,
	}
	if err := store.Put(meta, result, metricsJSON); err != nil {
		t.Fatalf("store.Put: %v", err)
	}
	return meta
}

func singleUnit(t *testing.T, spec *Spec) Unit {
	t.Helper()
	units, err := spec.Units()
	if err != nil {
		t.Fatalf("spec.Units: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("want 1 unit, got %d", len(units))
	}
	return units[0]
}

func screenSpec() *Spec {
	return &Spec{
		Artifacts: []string{"extc"},
		Config:    SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
}

func TestFindPrevious(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	u := singleUnit(t, screenSpec())

	// Empty store: no previous incarnation, no error.
	prev, _, err := FindPrevious(store, u)
	if err != nil || prev.Key != "" {
		t.Fatalf("empty store: got (%q, %v), want zero meta", prev.Key, err)
	}

	// Decoys: a different artifact, and a different config of the same
	// artifact — neither may match.
	other := singleUnit(t, &Spec{
		Artifacts: []string{"fig1"},
		Config:    SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	})
	plantPrevious(t, store, other, strings.Repeat("aa", 32), "prev-module", 100)
	diffCfg := singleUnit(t, &Spec{
		Artifacts: []string{"extc"},
		Config:    SpecConfig{Seeds: 1, BaseSeed: 7, Duration: "100ms", Quick: true},
	})
	plantPrevious(t, store, diffCfg, strings.Repeat("bb", 32), "prev-module", 100)
	prev, _, err = FindPrevious(store, u)
	if err != nil || prev.Key != "" {
		t.Fatalf("decoys only: got (%q, %v), want zero meta", prev.Key, err)
	}

	// Two real previous incarnations: the newest wins.
	plantPrevious(t, store, u, strings.Repeat("cc", 32), "prev-module", 100)
	want := plantPrevious(t, store, u, strings.Repeat("dd", 32), "prev-module", 200)
	prev, result, err := FindPrevious(store, u)
	if err != nil {
		t.Fatalf("FindPrevious: %v", err)
	}
	if prev.Key != want.Key {
		t.Errorf("newest: got %s, want %s", prev.Key[:8], want.Key[:8])
	}
	if len(result) == 0 {
		t.Error("no result bytes returned")
	}
	if err := CheckPayloads(result, []byte("[]")); err != nil {
		t.Errorf("previous result undecodable: %v", err)
	}

	// A tie on creation time breaks toward the lexicographically
	// smaller key.
	plantPrevious(t, store, u, strings.Repeat("ee", 32), "prev-module", 200)
	prev, _, err = FindPrevious(store, u)
	if err != nil || prev.Key != want.Key {
		t.Errorf("tie-break: got (%q, %v), want %s", prev.Key[:8], err, want.Key[:8])
	}

	// An entry under the current module fingerprint never screens, even
	// when newer.
	plantPrevious(t, store, u, strings.Repeat("ff", 32), core.ModuleFingerprint(), 300)
	prev, _, err = FindPrevious(store, u)
	if err != nil || prev.Key != want.Key {
		t.Errorf("current-module decoy: got (%q, %v), want %s", prev.Key[:8], err, want.Key[:8])
	}
}

func TestRunScreened(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	spec := screenSpec()
	u := singleUnit(t, spec)
	planted := plantPrevious(t, store, u, strings.Repeat("ab", 32), "prev-module", 100)

	var sawPrev Meta
	var sawResult []byte
	rep, err := Run(context.Background(), spec, Options{
		Store: store,
		Screen: func(gotU Unit, prev Meta, result []byte) (bool, string) {
			if gotU.Key != u.Key {
				t.Errorf("screen hook unit key %s, want %s", gotU.Key[:8], u.Key[:8])
			}
			sawPrev, sawResult = prev, result
			return true, "model agrees (test)"
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Screened != 1 || rep.Computed != 0 || rep.CacheHits != 0 {
		t.Fatalf("report: screened=%d computed=%d hits=%d, want 1/0/0",
			rep.Screened, rep.Computed, rep.CacheHits)
	}
	if sawPrev.Key != planted.Key {
		t.Errorf("screen hook saw prev %s, want %s", sawPrev.Key[:8], planted.Key[:8])
	}
	if len(sawResult) == 0 {
		t.Error("screen hook saw no result bytes")
	}
	if store.Has(u.Key) {
		t.Error("screened unit must not be committed under the new key")
	}

	// The journal records the disposition and status surfaces it.
	spans, err := ReadSpans(store.JournalPath())
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	var screened *Span
	for i := range spans {
		if spans[i].Phase == "screened" && spans[i].Key == u.Key {
			screened = &spans[i]
		}
	}
	if screened == nil {
		t.Fatal("no screened journal record")
	}
	if screened.Prev != planted.Key || screened.Note == "" {
		t.Errorf("screened record prev=%q note=%q, want prev=%s and a note",
			screened.Prev, screened.Note, planted.Key[:8])
	}
	sts, err := Status(spec, store)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if !sts[0].Screened || sts[0].Done || sts[0].InFlight {
		t.Errorf("status: %+v, want screened only", sts[0])
	}
	doc := NewStatusDoc(sts)
	if doc.Screened != 1 || doc.Units[0].State != UnitScreened {
		t.Errorf("status doc: screened=%d state=%s", doc.Screened, doc.Units[0].State)
	}

	// A rejecting oracle computes the unit for real; the store commit
	// then supersedes the screened disposition in status.
	rep, err = Run(context.Background(), spec, Options{
		Store:  store,
		Screen: func(Unit, Meta, []byte) (bool, string) { return false, "model disagrees" },
	})
	if err != nil {
		t.Fatalf("Run (reject): %v", err)
	}
	if rep.Computed != 1 || rep.Screened != 0 {
		t.Fatalf("reject report: computed=%d screened=%d, want 1/0", rep.Computed, rep.Screened)
	}
	if !store.Has(u.Key) {
		t.Error("rejected unit was not computed into the store")
	}
	sts, err = Status(spec, store)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if !sts[0].Done || sts[0].Screened {
		t.Errorf("status after compute: %+v, want done", sts[0])
	}
}
