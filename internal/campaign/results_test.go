package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"greedy80211/internal/runner"
)

func TestResultsReadsBackDecodedUnits(t *testing.T) {
	spec := testSpec()
	store := t.TempDir()
	mustRun(t, spec, Options{StoreDir: store})

	got, err := Results(spec, mustStore(t, store))
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	units, _ := spec.Units()
	if len(got) != len(units) {
		t.Fatalf("Results returned %d units, want %d", len(got), len(units))
	}
	for i, ur := range got {
		if ur.Unit.Name() != units[i].Name() {
			t.Errorf("unit %d: name %q, want %q (work-list order)", i, ur.Unit.Name(), units[i].Name())
		}
		if ur.Result == nil || ur.Result.ID != ur.Unit.Artifact {
			t.Errorf("unit %d: decoded result id %v, want %q", i, ur.Result, ur.Unit.Artifact)
		}
		if ur.Meta.Key != ur.Unit.Key {
			t.Errorf("unit %d: meta key mismatch", i)
		}
		// Re-encoding the decoded result must reproduce the stored bytes.
		var buf bytes.Buffer
		if err := ur.Result.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		_, stored, _, err := mustStore(t, store).Get(ur.Unit.Key)
		if err != nil {
			t.Fatalf("store get: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), stored) {
			t.Errorf("unit %d (%s): decode→re-encode is not the stored bytes", i, ur.Unit.Name())
		}
	}
}

func mustStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func TestResultsMissingUnits(t *testing.T) {
	spec := testSpec()
	store := t.TempDir()

	// Cold store: every unit is missing, named in work-list order.
	_, err := Results(spec, mustStore(t, store))
	var missing *MissingUnitsError
	if !errors.As(err, &missing) {
		t.Fatalf("Results on cold store: err = %v, want *MissingUnitsError", err)
	}
	units, _ := spec.Units()
	if len(missing.Missing) != len(units) {
		t.Fatalf("missing %d units, want %d", len(missing.Missing), len(units))
	}
	if !strings.Contains(err.Error(), units[0].Name()) {
		t.Errorf("error %q does not name missing unit %q", err, units[0].Name())
	}

	// Half-warm store: only the deleted unit is reported.
	mustRun(t, spec, Options{StoreDir: store})
	if err := mustStore(t, store).Delete(units[0].Key); err != nil {
		t.Fatalf("delete: %v", err)
	}
	_, err = Results(spec, mustStore(t, store))
	if !errors.As(err, &missing) {
		t.Fatalf("Results on torn store: err = %v, want *MissingUnitsError", err)
	}
	if len(missing.Missing) != 1 || missing.Missing[0].Name() != units[0].Name() {
		t.Fatalf("missing = %v, want exactly %q", missing.Missing, units[0].Name())
	}
	// Recompute and the read succeeds again.
	mustRun(t, spec, Options{StoreDir: store})
	if _, err := Results(spec, mustStore(t, store)); err != nil {
		t.Fatalf("Results after recompute: %v", err)
	}
}

// widthSpec is six quick units: three artifacts × two base seeds.
func widthSpec() *Spec {
	return &Spec{
		Artifacts: []string{"extc", "fig1", "fig2"},
		Config:    SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
		BaseSeeds: []int64{1, 2},
	}
}

// readOut is what the store's read paths give at one pool width.
type readOut struct {
	results     []UnitResult
	resultsErr  string
	tree        map[string]string
	assembleErr string
	verify      []string
}

// readAt runs Results, an all-hit Run that assembles, and Verify with
// the runner's pool at the given width.
func readAt(t *testing.T, width int, spec *Spec, dir string) readOut {
	t.Helper()
	runner.SetLimit(width)
	var out readOut
	var err error
	if out.results, err = Results(spec, mustStore(t, dir)); err != nil {
		out.resultsErr = err.Error()
	}
	outDir := t.TempDir()
	rep, err := Run(context.Background(), spec, Options{StoreDir: dir, OutDir: outDir})
	if err != nil {
		out.assembleErr = err.Error()
	} else if rep.CacheHits != rep.Units {
		t.Fatalf("width %d: assembling run hit %d of %d units", width, rep.CacheHits, rep.Units)
	}
	out.tree = readTree(t, outDir)
	bad, err := Verify(mustStore(t, dir))
	if err != nil {
		t.Fatalf("width %d: Verify: %v", width, err)
	}
	for _, e := range bad {
		out.verify = append(out.verify, e.Error())
	}
	return out
}

// The store's read-out must not depend on the pool's width: the same
// decoded units, the same assembled bytes, the same Verify list, and on
// failure the same error, naming the lowest-index failing unit.
func TestReadOutIndependentOfPoolWidth(t *testing.T) {
	defer runner.SetLimit(runner.Limit())
	spec := widthSpec()
	dir := t.TempDir()
	mustRun(t, spec, Options{StoreDir: dir})
	units, _ := spec.Units()

	seq, par := readAt(t, 1, spec, dir), readAt(t, 8, spec, dir)
	if seq.resultsErr != "" || seq.assembleErr != "" || len(seq.verify) > 0 {
		t.Fatalf("sound store: results %q, assemble %q, verify %v", seq.resultsErr, seq.assembleErr, seq.verify)
	}
	if len(seq.results) != len(units) || !reflect.DeepEqual(seq.results, par.results) {
		t.Error("Results differ between pool widths 1 and 8")
	}
	diffTrees(t, seq.tree, par.tree, "assembly at widths 1 and 8")
	if !reflect.DeepEqual(seq.verify, par.verify) {
		t.Errorf("Verify: width 1 %v, width 8 %v", seq.verify, par.verify)
	}

	// Two corrupt units: every path reports the lower-index one.
	for _, i := range []int{4, 1} {
		path := filepath.Join(dir, filepath.FromSlash(metricsName(units[i].Key)))
		if err := os.WriteFile(path, []byte("[{]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seq, par = readAt(t, 1, spec, dir), readAt(t, 8, spec, dir)
	for _, c := range []struct{ name, seq, par string }{
		{"Results", seq.resultsErr, par.resultsErr},
		{"assembly", seq.assembleErr, par.assembleErr},
	} {
		if c.seq != c.par {
			t.Errorf("%s error: width 1 %q, width 8 %q", c.name, c.seq, c.par)
		}
		if !strings.Contains(c.seq, units[1].Name()) || strings.Contains(c.seq, units[4].Name()) {
			t.Errorf("%s error %q should name %s alone", c.name, c.seq, units[1].Name())
		}
	}
	if len(seq.verify) != 2 || !reflect.DeepEqual(seq.verify, par.verify) {
		t.Errorf("Verify over two corrupt units: width 1 %v, width 8 %v", seq.verify, par.verify)
	}

	// Two absent units: named in work-list order, beside the units read.
	for _, i := range []int{4, 1} {
		if err := mustStore(t, dir).Delete(units[i].Key); err != nil {
			t.Fatal(err)
		}
	}
	var got [2][]UnitResult
	for w, width := range []int{1, 8} {
		runner.SetLimit(width)
		urs, err := Results(spec, mustStore(t, dir))
		var missing *MissingUnitsError
		if !errors.As(err, &missing) {
			t.Fatalf("width %d: err = %v, want *MissingUnitsError", width, err)
		}
		if len(missing.Missing) != 2 || missing.Missing[0].Name() != units[1].Name() ||
			missing.Missing[1].Name() != units[4].Name() {
			t.Errorf("width %d: missing %v, want %s then %s", width, missing.Missing, units[1].Name(), units[4].Name())
		}
		got[w] = urs
	}
	present := []int{0, 2, 3, 5}
	if len(got[0]) != len(present) || !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("present units: width 1 read %d, width 8 read %d, want the same %d", len(got[0]), len(got[1]), len(present))
	}
	for i, ur := range got[0] {
		if want := units[present[i]].Name(); ur.Unit.Name() != want {
			t.Errorf("present unit %d is %s, want %s (work-list order)", i, ur.Unit.Name(), want)
		}
	}
}

// BenchmarkResults reads a warm store of six quick units (fig1, fig2 and
// extc × two base seeds) back, decoded: the store read path alone, with
// no engine run around it.
func BenchmarkResults(b *testing.B) {
	spec := &Spec{
		Artifacts: []string{"fig1", "fig2", "extc"},
		Config:    SpecConfig{Seeds: 1, Duration: "200ms", Quick: true},
		BaseSeeds: []int64{1, 2},
	}
	dir := b.TempDir()
	mustRun(b, spec, Options{StoreDir: dir})
	store := mustStore(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		urs, err := Results(spec, store)
		if err != nil || len(urs) != 6 {
			b.Fatalf("Results: %d units, %v", len(urs), err)
		}
	}
}
