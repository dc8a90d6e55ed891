package campaign

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"greedy80211/internal/core"
	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/runner"
)

// Outcome classifies what happened to one unit during a Run.
type Outcome string

const (
	// OutcomeHit means the unit was already in the store: zero
	// simulation work.
	OutcomeHit Outcome = "hit"
	// OutcomeComputed means the unit was simulated and committed.
	OutcomeComputed Outcome = "computed"
	// OutcomeFailed means the unit's runner returned an error.
	OutcomeFailed Outcome = "failed"
	// OutcomeSkipped means cancellation arrived before the unit started.
	OutcomeSkipped Outcome = "skipped"
	// OutcomeScreened means the unit was not simulated because the
	// Options.Screen oracle confirmed a previous-module entry of the same
	// artifact and config still agrees with the analytic model.
	OutcomeScreened Outcome = "screened"
)

// Options configures one engine run.
type Options struct {
	// StoreDir roots a directory-backed content-addressed store.
	// Required unless Store is set.
	StoreDir string
	// Store, when non-nil, is an already-open store (possibly on a
	// non-directory Backend); it takes precedence over StoreDir.
	Store *Store
	// OutDir, when non-empty, receives the assembled per-artifact
	// results and the merged telemetry sidecar once every unit of the
	// full work-list is in the store.
	OutDir string
	// Shard/Shards partition the work-list: this process computes only
	// units with Index % Shards == Shard. Shards <= 1 means all units.
	Shard, Shards int
	// OnUnit, when set, observes each unit's outcome as it lands
	// (serialized — implementations need no locking).
	OnUnit func(u Unit, o Outcome, err error)
	// Screen, when set, enables the model-screening pass: for each unit
	// missing from the store whose previous-module incarnation exists
	// (FindPrevious), the oracle decides whether that prior result still
	// agrees with the analytic model — returning true records the unit as
	// screened instead of simulating it. cmd/campaign run -screen wires
	// this to report.ModelScreen over the Markov-chain predictions.
	Screen func(u Unit, prev Meta, result []byte) (ok bool, why string)
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// UnitError pairs a failed unit with its error.
type UnitError struct {
	Unit Unit
	Err  error
}

// Report summarizes a Run.
type Report struct {
	// Units is the full work-list size; InShard how many this process
	// was responsible for.
	Units, InShard int
	// CacheHits + Computed + Screened + Skipped + len(Failures) == InShard.
	CacheHits, Computed, Screened, Skipped int
	Failures                               []UnitError
	// Assembled reports whether the merge pass ran and OutFiles what it
	// wrote.
	Assembled bool
	OutFiles  []string
}

// Run executes the campaign: expand the spec, skip every unit already in
// the store, compute the misses of this shard in parallel (journaling a
// start before each unit and a commit after its store commit), and —
// when the whole work-list is present and nothing failed — assemble the
// final outputs. Unit failures do not abort the rest of the campaign;
// they are collected in the report. A cancelled ctx stops launching new
// units, finishes the ones in flight, and returns the partial report
// with err == ctx.Err(): re-running the same command later resumes from
// the store.
func Run(ctx context.Context, spec *Spec, opt Options) (*Report, error) {
	if opt.Shards > 1 && (opt.Shard < 0 || opt.Shard >= opt.Shards) {
		return nil, fmt.Errorf("campaign: shard %d out of range 0..%d", opt.Shard, opt.Shards-1)
	}
	logw := opt.Log
	if logw == nil {
		logw = io.Discard
	}
	expandStart := time.Now()
	units, err := spec.Units()
	if err != nil {
		return nil, err
	}
	expandEnd := time.Now()
	store := opt.Store
	if store == nil {
		if store, err = OpenStore(opt.StoreDir); err != nil {
			return nil, err
		}
	}
	journal, err := OpenJournal(store.JournalPath())
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	if err := journal.Append(Span{Unit: "expand", Phase: "expand",
		StartUnixNs: expandStart.UnixNano(), EndUnixNs: expandEnd.UnixNano(),
		Note: fmt.Sprintf("%d units", len(units))}); err != nil {
		return nil, err
	}

	mine := units
	if opt.Shards > 1 {
		mine = mine[:0:0]
		for _, u := range units {
			if u.Index%opt.Shards == opt.Shard {
				mine = append(mine, u)
			}
		}
	}
	rep := &Report{Units: len(units), InShard: len(mine)}
	fmt.Fprintf(logw, "campaign: %d units (%d in this shard)\n", len(units), len(mine))

	var (
		mu       sync.Mutex
		done     int
		outcomes = make([]Outcome, len(mine))
		failures = make([]UnitError, 0)
	)
	record := func(i int, o Outcome, err error) {
		mu.Lock()
		defer mu.Unlock()
		outcomes[i] = o
		if err != nil {
			failures = append(failures, UnitError{Unit: mine[i], Err: err})
		}
		done++
		fmt.Fprintf(logw, "campaign: [%d/%d] %s %s\n", done, len(mine), mine[i].Name(), o)
		if opt.OnUnit != nil {
			opt.OnUnit(mine[i], o, err)
		}
	}
	runErr := runner.EachContext(ctx, len(mine), func(i int) error {
		u := mine[i]
		if store.Has(u.Key) {
			record(i, OutcomeHit, nil)
			return nil
		}
		if opt.Screen != nil {
			prev, prevResult, perr := FindPrevious(store, u)
			if perr == nil && prev.Key != "" {
				if ok, why := opt.Screen(u, prev, prevResult); ok {
					now := time.Now()
					sp := u.Span("screened", now, now)
					sp.Prev, sp.Note = prev.Key, why
					if err := journal.Append(sp); err != nil {
						record(i, OutcomeFailed, err)
						return nil
					}
					record(i, OutcomeScreened, nil)
					return nil
				}
			}
		}
		computeStart := time.Now()
		if err := journal.Append(u.Span("start", computeStart, computeStart)); err != nil {
			record(i, OutcomeFailed, err)
			return nil
		}
		result, metricsJSON, err := ComputeUnit(u)
		computeEnd := time.Now()
		if jerr := journal.Append(u.Span("compute", computeStart, computeEnd)); err == nil {
			err = jerr
		}
		if err != nil {
			record(i, OutcomeFailed, fmt.Errorf("%s: %w", u.Name(), err))
			return nil
		}
		meta := Meta{
			Key:        u.Key,
			Module:     core.ModuleFingerprint(),
			Artifact:   u.Artifact,
			Seeds:      u.Config.Seeds,
			BaseSeed:   u.Config.BaseSeed,
			DurationNs: int64(u.Config.Duration),
			Quick:      u.Config.Quick,
		}
		if err := store.Put(meta, result, metricsJSON); err != nil {
			record(i, OutcomeFailed, err)
			return nil
		}
		if err := journal.Append(u.Span("commit", computeEnd, time.Now())); err != nil {
			record(i, OutcomeFailed, err)
			return nil
		}
		record(i, OutcomeComputed, nil)
		return nil
	})
	for _, o := range outcomes {
		switch o {
		case OutcomeHit:
			rep.CacheHits++
		case OutcomeComputed:
			rep.Computed++
		case OutcomeScreened:
			rep.Screened++
		case OutcomeFailed:
			// counted via rep.Failures
		default:
			rep.Skipped++
		}
	}
	rep.Failures = failures
	if runErr != nil {
		return rep, runErr // interrupted; store holds the progress
	}
	if len(failures) > 0 {
		return rep, nil
	}
	if opt.OutDir == "" {
		return rep, nil
	}
	missing := 0
	for _, u := range units {
		if !store.Has(u.Key) {
			missing++
		}
	}
	if missing > 0 {
		fmt.Fprintf(logw, "campaign: store missing %d/%d units; skipping assemble (run remaining shards, then re-run)\n",
			missing, len(units))
		return rep, nil
	}
	files, err := assemble(store, units, opt.OutDir)
	if err != nil {
		return rep, err
	}
	rep.Assembled = true
	rep.OutFiles = files
	fmt.Fprintf(logw, "campaign: assembled %d files into %s\n", len(files), opt.OutDir)
	return rep, nil
}

// ComputeUnit runs one artifact under the unit's config with a
// telemetry collector attached and returns the two store payloads. It is
// the single compute primitive shared by the in-process engine and
// campaignd HTTP workers — both produce exactly the bytes a standalone
// run of the artifact would.
func ComputeUnit(u Unit) (result, metricsJSON []byte, err error) {
	coll := metrics.NewCollector()
	cfg := u.Config
	cfg.Metrics = coll
	res, err := experiments.Run(u.Artifact, cfg)
	if err != nil {
		return nil, nil, err
	}
	result, err = res.MarshalStable()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := metrics.EncodeSnapshots(&buf, coll.Snapshots()); err != nil {
		return nil, nil, err
	}
	return result, buf.Bytes(), nil
}

// assemble is the merge pass: stream every unit's stored bytes into the
// output directory. result.json files are copied verbatim (they were
// encoded by the same stable encoder a direct run uses) and the
// per-unit snapshot arrays are decoded, labeled, and re-emitted as one
// metrics.jsonl in work-list order — byte-identical to what a single
// sequential `cmd/experiments -run a,b,… -json dir -metrics file`
// invocation over the same artifacts and config would write. Units are
// read, copied and decoded concurrently on the runner's pool; a failure
// reports the lowest-index failing unit.
func assemble(store *Store, units []Unit, outDir string) ([]string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: assemble: %w", err)
	}
	snaps, err := runner.Map(len(units), func(i int) ([]*metrics.Snapshot, error) {
		u := units[i]
		_, result, metricsJSON, err := store.Get(u.Key)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(outDir, u.Name()+".json"), result, 0o644); err != nil {
			return nil, fmt.Errorf("campaign: assemble: %w", err)
		}
		snaps, err := metrics.DecodeSnapshots(metricsJSON)
		if err != nil {
			return nil, fmt.Errorf("campaign: assemble %s: %w", u.Name(), err)
		}
		return snaps, nil
	})
	if err != nil {
		return nil, err
	}
	files := make([]string, 0, len(units)+1)
	var labeled []metrics.Labeled
	for i, u := range units {
		files = append(files, filepath.Join(outDir, u.Name()+".json"))
		for g, snap := range snaps[i] {
			labeled = append(labeled, metrics.Labeled{Label: u.Name(), Group: g, Snap: snap})
		}
	}
	sidecar := filepath.Join(outDir, "metrics.jsonl")
	if err := metrics.WriteFile(sidecar, labeled...); err != nil {
		return nil, fmt.Errorf("campaign: assemble: %w", err)
	}
	files = append(files, sidecar)
	return files, nil
}

// CheckPayloads validates that a unit's two payloads parse as a Result
// document and a snapshot array, and that the result is in its canonical
// form: re-encoding the decoded Result must give back the bytes exactly,
// which refuses unknown, case-folded and duplicate keys and any other
// layout. VerifyEntry uses it against stored bytes; campaignd uses it to
// vet worker uploads before committing them. The re-encode lives here,
// not in DecodeResult, so reads of committed results do not pay for it.
func CheckPayloads(result, metricsJSON []byte) error {
	res, err := experiments.DecodeResult(result)
	if err != nil {
		return err
	}
	canon, err := res.MarshalStable()
	if err != nil {
		return err
	}
	if !bytes.Equal(canon, result) {
		return fmt.Errorf("campaign: result differs from its canonical re-encoding (unknown, case-folded or duplicate key, or other layout)")
	}
	if _, err := metrics.DecodeSnapshots(metricsJSON); err != nil {
		return err
	}
	return nil
}
