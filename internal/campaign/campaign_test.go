package campaign

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"greedy80211/internal/experiments"
	"greedy80211/internal/runner"
	"greedy80211/internal/sim"
)

// testSpec is a tiny two-artifact campaign: extc (three single-run
// cases) and fig1 (trimmed sweep), fast enough for CI.
func testSpec() *Spec {
	return &Spec{
		Artifacts: []string{"extc", "fig1"},
		Config:    SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
}

func mustRun(t testing.TB, spec *Spec, opt Options) *Report {
	t.Helper()
	rep, err := Run(context.Background(), spec, opt)
	if err != nil {
		t.Fatalf("campaign.Run: %v", err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("campaign.Run failures: %v", rep.Failures)
	}
	return rep
}

// readTree loads every file under dir keyed by relative path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	return out
}

func diffTrees(t *testing.T, want, got map[string]string, label string) {
	t.Helper()
	var wantNames, gotNames []string
	for k := range want {
		wantNames = append(wantNames, k)
	}
	for k := range got {
		gotNames = append(gotNames, k)
	}
	sort.Strings(wantNames)
	sort.Strings(gotNames)
	if strings.Join(wantNames, ",") != strings.Join(gotNames, ",") {
		t.Fatalf("%s: file sets differ: want %v, got %v", label, wantNames, gotNames)
	}
	for _, name := range wantNames {
		if want[name] != got[name] {
			t.Errorf("%s: %s differs byte-for-byte", label, name)
		}
	}
}

// A warm-cache rerun must perform zero simulation work: every unit is a
// cache hit (the acceptance criterion: hit count == unit total).
func TestWarmCacheRerunHitsEverything(t *testing.T) {
	store := t.TempDir()
	out1, out2 := t.TempDir(), t.TempDir()
	spec := testSpec()

	cold := mustRun(t, spec, Options{StoreDir: store, OutDir: out1})
	if cold.Computed != cold.Units || cold.CacheHits != 0 {
		t.Fatalf("cold run: computed %d, hits %d, want %d computed, 0 hits",
			cold.Computed, cold.CacheHits, cold.Units)
	}
	if !cold.Assembled {
		t.Fatal("cold run did not assemble")
	}

	warm := mustRun(t, spec, Options{StoreDir: store, OutDir: out2})
	if warm.CacheHits != warm.Units || warm.Computed != 0 {
		t.Fatalf("warm rerun: hits %d, computed %d, want hits == units (%d) and 0 computed",
			warm.CacheHits, warm.Computed, warm.Units)
	}
	diffTrees(t, readTree(t, out1), readTree(t, out2), "warm rerun outputs")
}

// Two shards against a shared store must cover disjoint units, and the
// merged assembly must equal a single-process run byte-for-byte — both
// the per-artifact results and the metrics sidecar.
func TestTwoShardRunMergesByteIdentical(t *testing.T) {
	spec := testSpec()
	shardStore, soloStore := t.TempDir(), t.TempDir()
	shardOut, soloOut := t.TempDir(), t.TempDir()

	s0 := mustRun(t, spec, Options{StoreDir: shardStore, Shard: 0, Shards: 2})
	s1 := mustRun(t, spec, Options{StoreDir: shardStore, Shard: 1, Shards: 2})
	if s0.Computed+s1.Computed != s0.Units {
		t.Fatalf("shards computed %d + %d units, want exactly %d between them",
			s0.Computed, s1.Computed, s0.Units)
	}
	if s0.InShard+s1.InShard != s0.Units || s0.InShard == 0 || s1.InShard == 0 {
		t.Fatalf("shard partition %d + %d not a 2-way split of %d", s0.InShard, s1.InShard, s0.Units)
	}
	// The merge pass: a full run over the now-complete store is all hits.
	merge := mustRun(t, spec, Options{StoreDir: shardStore, OutDir: shardOut})
	if merge.CacheHits != merge.Units {
		t.Fatalf("merge pass recomputed %d units", merge.Computed)
	}
	if !merge.Assembled {
		t.Fatal("merge pass did not assemble")
	}

	solo := mustRun(t, spec, Options{StoreDir: soloStore, OutDir: soloOut})
	if !solo.Assembled {
		t.Fatal("solo run did not assemble")
	}
	diffTrees(t, readTree(t, soloOut), readTree(t, shardOut), "2-shard merge vs 1-process run")
}

// An interrupted campaign — cancelled mid-run, then crash-damaged
// (journal tail torn off, one committed unit destroyed) — must resume
// and produce output byte-identical to a never-interrupted run.
func TestInterruptResumeByteIdentical(t *testing.T) {
	// Four units with a worker-pool limit of 1: at most two units are in
	// flight when the first one lands (one pooled, one inline), so
	// cancelling on the first outcome always leaves a strict subset
	// computed and at least two units skipped.
	spec := &Spec{
		Artifacts: []string{"extc", "fig1", "tab1", "tab3"},
		Config:    SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
	old := runner.Limit()
	defer runner.SetLimit(old)
	runner.SetLimit(1)

	crashStore, freshStore := t.TempDir(), t.TempDir()
	crashOut, freshOut := t.TempDir(), t.TempDir()

	// Cancel as soon as the first unit lands; in-flight units finish,
	// unstarted ones are skipped.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Run(ctx, spec, Options{
		StoreDir: crashStore,
		OutDir:   crashOut,
		OnUnit:   func(Unit, Outcome, error) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if rep.Computed == 0 || rep.Computed == rep.Units {
		t.Fatalf("interrupted run computed %d of %d units; want a strict subset", rep.Computed, rep.Units)
	}
	if rep.Assembled {
		t.Fatal("interrupted run must not assemble")
	}

	// Simulate the crash aftermath: tear off the journal's final line
	// and destroy one committed store entry outright.
	store, err := OpenStore(crashStore)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(jb), "\n"), "\n")
	torn := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(store.JournalPath(), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil || len(keys) == 0 {
		t.Fatalf("store keys: %v (%d keys)", err, len(keys))
	}
	kept := len(keys)
	if kept > 1 {
		if err := store.Delete(keys[0]); err != nil {
			t.Fatal(err)
		}
		kept--
	}

	resumed := mustRun(t, spec, Options{StoreDir: crashStore, OutDir: crashOut})
	if !resumed.Assembled {
		t.Fatal("resumed run did not assemble")
	}
	if resumed.CacheHits != kept {
		t.Errorf("resumed run reused %d units, want the %d that survived the crash", resumed.CacheHits, kept)
	}
	if resumed.Computed != resumed.Units-kept {
		t.Errorf("resumed run recomputed %d units, want %d", resumed.Computed, resumed.Units-kept)
	}

	fresh := mustRun(t, spec, Options{StoreDir: freshStore, OutDir: freshOut})
	if !fresh.Assembled {
		t.Fatal("fresh run did not assemble")
	}
	diffTrees(t, readTree(t, freshOut), readTree(t, crashOut), "resumed vs uninterrupted run")
}

// Normalize is idempotent over arbitrary configs, and hashing happens on
// the normalized form: a config is key-equal to its normalization, and
// configs differing only in defaulted fields hash identically.
func TestKeyCanonicalization(t *testing.T) {
	gen := func(seeds int, baseSeed int64, durMs int, quickMode bool) experiments.RunConfig {
		if seeds < 0 {
			seeds = -seeds
		}
		if durMs < 0 {
			durMs = -durMs
		}
		return experiments.RunConfig{
			Seeds:    seeds % 8,
			BaseSeed: baseSeed,
			Duration: sim.Time(durMs%2000) * sim.Millisecond,
			Quick:    quickMode,
		}
	}
	idempotent := func(seeds int, baseSeed int64, durMs int, quickMode bool) bool {
		c := gen(seeds, baseSeed, durMs, quickMode)
		n := c.Normalize()
		return n == n.Normalize()
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("Normalize not idempotent: %v", err)
	}
	keyStable := func(seeds int, baseSeed int64, durMs int, quickMode bool) bool {
		c := gen(seeds, baseSeed, durMs, quickMode)
		return Key("fig1", c) == Key("fig1", c.Normalize())
	}
	if err := quick.Check(keyStable, nil); err != nil {
		t.Errorf("Key differs between a config and its normalization: %v", err)
	}

	zero := experiments.RunConfig{}
	explicit := experiments.RunConfig{
		Seeds:    experiments.DefaultSeeds,
		Duration: experiments.DefaultDuration,
	}
	if Key("fig1", zero) != Key("fig1", explicit) {
		t.Error("zero config and explicit defaults hash differently")
	}
	if Key("fig1", zero) == Key("fig2", zero) {
		t.Error("different artifacts hash identically")
	}
	if Key("fig1", zero) == Key("fig1", experiments.RunConfig{BaseSeed: 1}) {
		t.Error("different base seeds hash identically")
	}
	if Key("fig1", zero) == Key("fig1", experiments.RunConfig{Quick: true}) {
		t.Error("quick and full configs hash identically")
	}
}

// The work-list expansion is deterministic and shard partitions are
// stable: expanding the same spec twice yields identical units.
func TestUnitsDeterministicAndSeedCross(t *testing.T) {
	spec := &Spec{
		Artifacts: []string{"fig1", "extc"},
		Config:    SpecConfig{Quick: true, Duration: "100ms"},
		BaseSeeds: []int64{0, 1000},
	}
	a, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 {
		t.Fatalf("got %d units, want 4 (2 artifacts × 2 seeds)", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unit %d differs between expansions: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Name() != "fig1_seed0" || a[1].Name() != "fig1_seed1000" {
		t.Errorf("multi-seed names wrong: %s, %s", a[0].Name(), a[1].Name())
	}
	seen := map[string]bool{}
	for _, u := range a {
		if seen[u.Key] {
			t.Fatalf("duplicate key for unit %s", u.Name())
		}
		seen[u.Key] = true
	}
}

func TestSpecErrors(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"empty":        {},
		"unknown":      {Artifacts: []string{"fig999"}},
		"dup artifact": {Artifacts: []string{"fig1", "fig1"}},
		"dup seed":     {Artifacts: []string{"fig1"}, BaseSeeds: []int64{3, 3}},
		"bad duration": {Artifacts: []string{"fig1"}, Config: SpecConfig{Duration: "nonsense"}},
	} {
		if _, err := spec.Units(); err == nil {
			t.Errorf("%s: Units() accepted an invalid spec", name)
		}
	}
}
