package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/scenario"
)

// warmReps is how many all-hit Run + Results rounds one pass serves. A
// round takes about 15 ms, so the pass times each one and keeps the
// median round: a stall of the host hits a few rounds, not the median.
const warmReps = 32

// campaignBench runs the gated artifacts × two base seeds through the
// campaign engine into a fresh store: a cold pass that computes and
// commits every unit, then warm rounds that hit every unit and decode
// the store.
type campaignBench struct {
	spec  *campaign.Spec
	work  string
	dir   string
	store *campaign.Store
	units []campaign.Unit
	timed *timedBackend // set when the pass is traced
	used  bool          // files were deleted since the last sync
	// replayed holds the counts of simulating every unit directly, made
	// once per run because the engine does not expose its worlds. They
	// are per-run values: no later pass re-derives them.
	replayed map[string]float64
}

func newCampaign(seed int64, work string) (*campaignBench, error) {
	prof, err := loadProfile()
	if err != nil {
		return nil, err
	}
	cfg := campaign.SpecConfigOf(prof.base)
	return &campaignBench{
		spec: &campaign.Spec{
			Artifacts: prof.ids,
			Config:    campaign.SpecConfig{Seeds: cfg.Seeds, Duration: cfg.Duration, Quick: cfg.Quick},
			BaseSeeds: []int64{2*seed + 1, 2*seed + 2},
		},
		work: work,
		used: true, // an earlier run may just have deleted its store
	}, nil
}

// setup opens a fresh store and expands the spec.
func (c *campaignBench) setup(tr *tracer) (time.Duration, error) {
	os.RemoveAll(c.dir) // the previous pass's store
	if c.used {
		// Commit the deletes of a whole store now, so the timed mkdirs
		// below do not wait on the filesystem journal for them.
		syscall.Sync()
		c.used = false
	}
	// One fixed path: a fresh name per set-up would grow the parent
	// directory and slow every later MkdirAll.
	c.dir = filepath.Join(c.work, "pass")
	storeDir := filepath.Join(c.dir, "store")
	t0 := time.Now()
	b, err := campaign.NewDirBackend(storeDir)
	if err != nil {
		return 0, err
	}
	var backend campaign.Backend = b
	c.timed = nil
	if tr != nil {
		c.timed = &timedBackend{inner: b, tr: tr}
		backend = c.timed
	}
	c.store = campaign.NewStore(backend, filepath.Join(storeDir, "journal.jsonl"))
	c.units, err = c.spec.Units()
	return time.Since(t0), err
}

func (c *campaignBench) pass(tr *tracer) (sample, error) {
	s := sample{census: map[string]float64{}, layer: map[string]float64{}}
	ctx := context.Background()
	n := len(c.units)
	coldDir, warmDir := filepath.Join(c.dir, "cold"), filepath.Join(c.dir, "warm")
	c.used = true

	sw := startWatch()
	var rep *campaign.Report
	_, err := tr.call("campaign", "Run cold", func() (err error) {
		rep, err = campaign.Run(ctx, c.spec, campaign.Options{Store: c.store, OutDir: coldDir})
		return err
	})
	s.wall, s.cpu = sw.stop()
	if err != nil {
		return s, err
	}
	if rep.Computed != n || len(rep.Failures) > 0 || !rep.Assembled {
		return s, fmt.Errorf("campaign: cold pass computed %d of %d units, %d failures", rep.Computed, n, len(rep.Failures))
	}

	var urs []campaign.UnitResult
	rounds := make([]float64, 0, warmReps)
	for i := 0; i < warmReps; i++ {
		ws := startWatch()
		if _, err := tr.call("campaign", "Run warm", func() (err error) {
			rep, err = campaign.Run(ctx, c.spec, campaign.Options{Store: c.store})
			return err
		}); err != nil {
			return s, err
		}
		if rep.CacheHits != n {
			return s, fmt.Errorf("campaign: warm pass hit %d of %d units", rep.CacheHits, n)
		}
		if _, err := tr.call("campaign", "Results", func() (err error) {
			urs, err = campaign.Results(c.spec, c.store)
			return err
		}); err != nil {
			return s, err
		}
		if len(urs) != n {
			return s, fmt.Errorf("campaign: Results decoded %d of %d units", len(urs), n)
		}
		wall, _ := ws.stop()
		rounds = append(rounds, secs(wall))
	}
	s.warmWall = time.Duration(median(rounds) * float64(time.Second))
	s.units = float64(n)
	s.warm = float64(n)
	if tr != nil {
		// Before the checks below, whose store reads lie in no timed phase.
		c.layerMetrics(s.layer)
	}

	// The warm rounds only read; one more all-hit run assembles from the
	// warm store, outside the timed phase, to check the assembly.
	rep, err = campaign.Run(ctx, c.spec, campaign.Options{Store: c.store, OutDir: warmDir})
	if err != nil {
		return s, err
	}
	if rep.CacheHits != n || !rep.Assembled {
		return s, fmt.Errorf("campaign: assembling run hit %d of %d units", rep.CacheHits, n)
	}
	if err := sameTree(coldDir, warmDir); err != nil {
		return s, err
	}
	keys, err := c.store.Keys()
	if err != nil {
		return s, err
	}
	if len(keys) != n {
		return s, fmt.Errorf("campaign: store holds %d keys for %d units", len(keys), n)
	}
	for _, k := range keys {
		if err := c.store.VerifyEntry(k); err != nil {
			return s, err
		}
	}
	if c.replayed == nil {
		if c.replayed, err = c.replay(); err != nil {
			return s, err
		}
	}
	s.perRun = c.replayed
	var snaps []*metrics.Snapshot
	for _, ur := range urs {
		snaps = append(snaps, ur.Snapshots...)
	}
	macCensus(s.census, snaps)
	s.events = c.replayed["sim.events_scheduled"]
	return s, nil
}

// replay simulates every unit directly, outside any timed phase, with a
// pool report attached, and checks each result against the bytes the
// store holds.
func (c *campaignBench) replay() (map[string]float64, error) {
	pools := &scenario.PoolReport{}
	for _, u := range c.units {
		rc := u.Config
		rc.Pools = pools
		res, err := experiments.Run(u.Artifact, rc)
		if err != nil {
			return nil, err
		}
		got, err := res.MarshalStable()
		if err != nil {
			return nil, err
		}
		want, err := c.store.GetResult(u.Key)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("campaign: stored result of %s differs from a direct run", u.Name())
		}
	}
	out := map[string]float64{}
	return out, poolCensus(out, pools)
}

// layerMetrics reads the traced pass's store timings, the engine's own
// span log, and the sizes of its journal and span files, as they stand
// after the cold and warm phases.
func (c *campaignBench) layerMetrics(m map[string]float64) {
	t := c.timed
	t.mu.Lock()
	m["campaign.store.put_s"] = secs(t.put)
	m["campaign.store.put_count"] = float64(t.putN)
	m["campaign.store.put_bytes"] = float64(t.putB)
	m["campaign.store.get_s"] = secs(t.get)
	m["campaign.store.get_count"] = float64(t.getN)
	m["campaign.store.get_bytes"] = float64(t.getB)
	m["campaign.store.list_s"] = secs(t.list)
	m["campaign.store.stat_s"] = secs(t.stat)
	m["campaign.store.stat_count"] = float64(t.statN)
	t.mu.Unlock()
	if spans, err := campaign.ReadSpans(c.store.SpanPath()); err == nil {
		for _, sp := range spans {
			switch sp.Phase {
			case "expand", "compute", "commit":
				m["campaign."+sp.Phase+"_s"] += float64(sp.EndUnixNs-sp.StartUnixNs) / 1e9
			}
		}
	}
	if fi, err := os.Stat(c.store.JournalPath()); err == nil {
		m["campaign.journal_bytes"] = float64(fi.Size())
	}
	if fi, err := os.Stat(c.store.SpanPath()); err == nil {
		m["campaign.spans_bytes"] = float64(fi.Size())
	}
}

// sameTree reports whether two directories hold the same files with the
// same bytes.
func sameTree(a, b string) error {
	read := func(root string) (map[string][]byte, error) {
		out := map[string][]byte{}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			out[rel], err = os.ReadFile(p)
			return err
		})
		return out, err
	}
	fa, err := read(a)
	if err != nil {
		return err
	}
	fb, err := read(b)
	if err != nil {
		return err
	}
	if len(fa) == 0 || len(fa) != len(fb) {
		return fmt.Errorf("campaign: cold assembly has %d files, warm %d", len(fa), len(fb))
	}
	for name, data := range fa {
		if !bytes.Equal(data, fb[name]) {
			return fmt.Errorf("campaign: warm assembly of %s differs from cold", name)
		}
	}
	return nil
}

// timedBackend times every call into the store's backend from outside
// and records it as a span under the current call.
type timedBackend struct {
	inner campaign.Backend
	tr    *tracer

	mu                   sync.Mutex
	put, get, list, stat time.Duration
	putN, getN, statN    int
	putB, getB           int64
}

func (b *timedBackend) timed(name string, fn func()) time.Duration {
	id := b.tr.open(0, "campaign.store", name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.tr.close(id)
	return d
}

func (b *timedBackend) Put(name string, data []byte) error {
	var err error
	d := b.timed("Put", func() { err = b.inner.Put(name, data) })
	b.mu.Lock()
	b.put += d
	b.putN++
	b.putB += int64(len(data))
	b.mu.Unlock()
	return err
}

func (b *timedBackend) Get(name string) ([]byte, error) {
	var data []byte
	var err error
	d := b.timed("Get", func() { data, err = b.inner.Get(name) })
	b.mu.Lock()
	b.get += d
	b.getN++
	b.getB += int64(len(data))
	b.mu.Unlock()
	return data, err
}

func (b *timedBackend) List(prefix string) ([]string, error) {
	var names []string
	var err error
	d := b.timed("List", func() { names, err = b.inner.List(prefix) })
	b.mu.Lock()
	b.list += d
	b.mu.Unlock()
	return names, err
}

func (b *timedBackend) Stat(name string) (campaign.ObjectInfo, error) {
	var info campaign.ObjectInfo
	var err error
	d := b.timed("Stat", func() { info, err = b.inner.Stat(name) })
	b.mu.Lock()
	b.stat += d
	b.statN++
	b.mu.Unlock()
	return info, err
}

func (b *timedBackend) Delete(name string) error { return b.inner.Delete(name) }
