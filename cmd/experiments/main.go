// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig1
//	experiments -run all -quick
//	experiments -run fig4,fig5 -seeds 5 -duration 5s
//	experiments -run fig2 -metrics fig2_metrics.jsonl
//	experiments -run all -json out/ -metrics out/metrics.jsonl
//	experiments -run fig1 -quick -trace traces/
//	experiments -analytic fig2
//
// -run accepts a single id, a comma-separated list, or "all". A failing
// artifact does not abort the rest of the campaign: every requested
// artifact is attempted, a pass/fail summary is printed when more than
// one ran, and the exit status is nonzero if any failed.
//
// -trace <dir> records every world with the flight recorder and checks
// the 802.11 access invariants live over each one; it is the one way to
// record an artifact (trace check re-verifies the written files). An
// artifact whose worlds break an invariant still writes its files, lists
// the violations on stderr and counts as failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"greedy80211/internal/analytic"
	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/profileflags"
	"greedy80211/internal/runner"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/trace"
	"greedy80211/internal/versionflag"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// runArtifact and runTraced are experiments.Run and RunTraced,
// injectable so tests can exercise the failure paths without a
// deliberately broken registry or simulator.
var (
	runArtifact = experiments.Run
	runTraced   = experiments.RunTraced
)

func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list         = fs.Bool("list", false, "list every artifact and exit")
		id           = fs.String("run", "", "artifact id (fig1..fig24, tab1..tab9), comma-separated list, or \"all\"")
		analyticMode = fs.Bool("analytic", false,
			"print the Markov-chain analytic tier's predictions for the artifact(s) instead of simulating (no sweep, milliseconds instead of minutes)")
		seeds    = fs.Int("seeds", 0, "seeded repetitions per data point (default 5, paper methodology)")
		baseSeed = fs.Int64("seed", 0, "base seed")
		duration = fs.Duration("duration", 0, "simulated time per run (default 5s)")
		quick    = fs.Bool("quick", false, "1 seed, 2s runs, trimmed sweeps")
		csvDir   = fs.String("csv", "", "also write each artifact's data as CSV files into this directory")
		jsonDir  = fs.String("json", "", "also write each artifact as stable JSON (<id>.json) into this directory")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"worker-pool size for (sweep-point × seed) fan-out; 1 = sequential (output is identical either way)")
		metricsOut = fs.String("metrics", "",
			"write a per-station telemetry sidecar to this file (.csv for CSV, else JSONL); identical for any -parallel value")
		traceDir = fs.String("trace", "",
			"attach a flight recorder and invariant checker to every world and write per-run JSONL traces + ASCII timelines into this directory; violations fail the artifact; identical for any -parallel value")
		traceCap = fs.Int("trace-cap", 0, "flight-recorder ring capacity in events per run (default 4096)")
		version  = versionflag.Register(fs)
		prof     = profileflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q; name artifacts with -run\n", fs.Arg(0))
		return 2
	}
	if versionflag.Handle(version, os.Stdout, "experiments") {
		return 0
	}
	runner.SetLimit(*parallel)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	defer stopProf()
	if *list {
		for _, reg := range experiments.All() {
			fmt.Printf("%-6s %s\n", reg.ID, reg.Title)
		}
		return 0
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "experiments: -run <id> or -list required")
		fs.Usage()
		return 2
	}
	if *analyticMode {
		return runAnalytic(*id)
	}
	cfg := experiments.RunConfig{
		Seeds:    *seeds,
		BaseSeed: *baseSeed,
		Duration: sim.Time(duration.Nanoseconds()),
		Quick:    *quick,
	}
	var ids []string
	for _, art := range strings.Split(*id, ",") {
		art = strings.TrimSpace(art)
		if art == "" {
			continue
		}
		if art == "all" {
			for _, reg := range experiments.All() {
				ids = append(ids, reg.ID)
			}
			continue
		}
		ids = append(ids, art)
	}
	var sidecar []metrics.Labeled
	var failed []string
	for _, art := range ids {
		start := time.Now()
		if *metricsOut != "" {
			cfg.Metrics = metrics.NewCollector()
			// Pool occupancy rides along with -metrics as an stdout-only
			// report; it never enters the sidecar.
			cfg.Pools = new(scenario.PoolReport)
		}
		if _, ok := experiments.Lookup(art); !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q\n", art)
			failed = append(failed, art)
			continue
		}
		var (
			res  *experiments.Result
			recs []*trace.Recording
			err  error
		)
		if *traceDir != "" {
			res, recs, err = runTraced(art, cfg, *traceCap)
		} else {
			res, err = runArtifact(art, cfg)
		}
		var verr *trace.ViolationError
		if err != nil && !errors.As(err, &verr) {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", art, err)
			failed = append(failed, art)
			continue
		}
		fmt.Print(res.String())
		if *traceDir != "" {
			paths, err := trace.ExportDir(*traceDir, art, recs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Printf("%d trace files written to %s\n", len(paths), *traceDir)
			if verr != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v:\n", art, verr)
				for _, v := range verr.Violations {
					fmt.Fprintln(os.Stderr, v)
				}
				failed = append(failed, art)
			}
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
		}
		if cfg.Metrics != nil {
			for i, snap := range cfg.Metrics.Snapshots() {
				sidecar = append(sidecar, metrics.Labeled{Label: art, Group: i, Snap: snap})
			}
		}
		if cfg.Pools != nil {
			fmt.Println(cfg.Pools.String())
		}
		fmt.Printf("(%s regenerated in %.1fs)\n\n", art, time.Since(start).Seconds())
	}
	if *metricsOut != "" {
		if err := metrics.WriteFile(*metricsOut, sidecar...); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		fmt.Printf("telemetry sidecar written to %s\n", *metricsOut)
	}
	if len(ids) > 1 {
		fmt.Printf("%d/%d artifacts regenerated", len(ids)-len(failed), len(ids))
		if len(failed) > 0 {
			fmt.Printf("; FAILED: %s", strings.Join(failed, ", "))
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// runAnalytic prints the Markov-chain tier's predictions for each
// requested artifact: the per-check predicted values the report gate
// compares against golden wants, then each solved scenario's per-class
// fixed point. "all" means every artifact the model covers.
func runAnalytic(id string) int {
	var ids []string
	for _, art := range strings.Split(id, ",") {
		art = strings.TrimSpace(art)
		if art == "" {
			continue
		}
		if art == "all" {
			ids = append(ids, analytic.PredictedArtifacts()...)
			continue
		}
		ids = append(ids, art)
	}
	failed := 0
	for _, art := range ids {
		pred, err := analytic.Predict(art)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			failed++
			continue
		}
		fmt.Printf("%s — analytic predictions (no simulation)\n", art)
		checks := stats.Table{Header: []string{"check", "model"}}
		for _, cid := range sortedKeys(pred.Values) {
			checks.AddRow(cid, pred.Values[cid])
		}
		fmt.Print(checks.String())
		for _, sc := range pred.Scenarios {
			fmt.Printf("scenario %s (converged in %d iterations, residual %.2g)\n",
				sc.Label, sc.Result.Iterations, sc.Result.Residual)
			t := stats.Table{Header: []string{"class", "n", "tau", "p", "avg CW",
				"drop", "Mbps/station", "airtime"}}
			for _, c := range sc.Result.Classes {
				t.AddRow(c.Name, float64(c.N), c.TauEffective, c.PCollision,
					c.AvgCW, c.DropProb, c.PerStationBps/1e6, c.AirtimeShare)
			}
			fmt.Print(t.String())
		}
		fmt.Println()
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeCSVs(dir string, res *experiments.Result) error {
	files, err := res.CSVFiles()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating csv dir: %w", err)
	}
	for name, doc := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", name, err)
		}
	}
	return nil
}

func writeJSON(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating json dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".json"))
	if err != nil {
		return fmt.Errorf("writing %s.json: %w", res.ID, err)
	}
	err = res.WriteJSON(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing %s.json: %w", res.ID, cerr)
	}
	return err
}
