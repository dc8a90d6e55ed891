// Command campaign drives durable, resumable, shardable experiment
// campaigns over the content-addressed result store.
//
// Usage:
//
//	campaign run -spec spec.json -store .campaign -out results/
//	campaign run -artifacts fig1,fig4 -seeds 5 -duration 5s -store .campaign
//	campaign run -spec spec.json -store /shared/store -shard 0/2
//	campaign run -spec spec.json -store .campaign -screen
//	campaign status -spec spec.json -store .campaign [-json]
//	campaign status -server http://host:8080 -follow
//	campaign gc -spec spec.json -store .campaign
//	campaign verify -store .campaign
//	campaign submit -spec spec.json -server http://host:8080
//	campaign worker -server http://host:8080 -campaign <id>
//	campaign spans -store .campaign -out spans.json
//
// A campaign expands into a deterministic work-list of units (artifact ×
// config × base seed). Units already in the store are skipped, so
// re-running after an interrupt (Ctrl-C, crash, power loss) resumes
// where it stopped, and a warm rerun does zero simulation work. With
// -shard i/n independent processes compute disjoint slices of the
// work-list against a shared store; once the store is complete, any run
// with -out assembles results byte-identically to a single sequential
// cmd/experiments invocation.
//
// submit and worker speak to a campaignd server instead of a local
// store: submit registers the spec and prints the campaign id, worker
// pulls per-unit leases over HTTP, heartbeats while computing, and
// uploads results until the campaign is done.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/campaignd/client"
	"greedy80211/internal/core"
	"greedy80211/internal/obs"
	"greedy80211/internal/profileflags"
	"greedy80211/internal/report"
	"greedy80211/internal/runner"
	"greedy80211/internal/stats"
	"greedy80211/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() {
	fmt.Fprintln(os.Stderr, `campaign: durable experiment campaigns

subcommands:
  run     compute a campaign's units into the store (resumable, shardable)
  status  show per-unit standing of a spec against a store (-json for machines),
          or live progress from a campaignd server (-server, -follow)
  gc      delete store entries a spec no longer references
  verify  check every store entry's checksums and decodability
  submit  register a spec with a campaignd server and print its id
  worker  pull unit leases from a campaignd server and compute them
  spans   render the store's lifecycle journal as Chrome trace JSON (Perfetto)

run "campaign <subcommand> -h" for flags`)
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "status":
		return cmdStatus(args[1:])
	case "gc":
		return cmdGC(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "submit":
		return cmdSubmit(args[1:])
	case "worker":
		return cmdWorker(args[1:])
	case "spans":
		return cmdSpans(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	case "-version", "--version", "version":
		fmt.Printf("campaign %s\n", core.ModuleFingerprint())
		return 0
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
}

// specFlags registers the flags that name or build a spec and returns a
// loader to call after parsing.
func specFlags(fs *flag.FlagSet) func() (*campaign.Spec, error) {
	var (
		specPath  = fs.String("spec", "", "campaign spec file (JSON); overrides the inline flags below")
		artifacts = fs.String("artifacts", "", "comma-separated artifact ids, or \"all\"")
		seeds     = fs.Int("seeds", 0, "seeded repetitions per data point (default 5)")
		baseSeed  = fs.Int64("seed", 0, "base seed")
		baseSeeds = fs.String("base-seeds", "", "comma-separated base-seed set; each seed is a distinct unit per artifact")
		duration  = fs.Duration("duration", 0, "simulated time per run (default 5s)")
		quick     = fs.Bool("quick", false, "1 seed, 2s runs, trimmed sweeps")
	)
	return func() (*campaign.Spec, error) {
		if *specPath != "" {
			return campaign.LoadSpec(*specPath)
		}
		if *artifacts == "" {
			return nil, fmt.Errorf("-spec <file> or -artifacts <ids> required")
		}
		spec := &campaign.Spec{
			Config: campaign.SpecConfig{
				Seeds:    *seeds,
				BaseSeed: *baseSeed,
				Quick:    *quick,
			},
		}
		if *duration != 0 {
			spec.Config.Duration = duration.String()
		}
		for _, id := range strings.Split(*artifacts, ",") {
			if id = strings.TrimSpace(id); id != "" {
				spec.Artifacts = append(spec.Artifacts, id)
			}
		}
		if *baseSeeds != "" {
			for _, s := range strings.Split(*baseSeeds, ",") {
				var v int64
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil {
					return nil, fmt.Errorf("bad -base-seeds entry %q", s)
				}
				spec.BaseSeeds = append(spec.BaseSeeds, v)
			}
		}
		return spec, nil
	}
}

// openStore opens the -store directory, reporting the subcommand name in
// errors.
func openStore(sub, dir string) (*campaign.Store, bool) {
	st, err := campaign.OpenStore(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign %s: %v\n", sub, err)
		return nil, false
	}
	return st, true
}

// drainContext cancels the returned context on SIGINT/SIGTERM, printing
// which signal arrived and that in-flight units are draining. A second
// signal force-quits immediately — sometimes the operator really means
// it.
func drainContext(what string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "campaign: received %v; %s (signal again to force-quit)\n", sig, what)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "campaign: second signal; exiting now")
		os.Exit(130)
	}()
	return ctx, func() { signal.Stop(sigc); cancel() }
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("campaign run", flag.ContinueOnError)
	loadSpec := specFlags(fs)
	var (
		storeDir = fs.String("store", "", "result store directory (required)")
		outDir   = fs.String("out", "", "assemble per-artifact results and metrics sidecar into this directory")
		shard    = fs.String("shard", "", "compute only work-list slice i/n (e.g. 0/2); all shards share -store")
		screen   = fs.Bool("screen", false,
			"model-screening pass: skip recomputing units whose previous-module result still agrees with the analytic model on every model-banded check (journaled as \"screened\", never adopted into the store)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size")
		prof     = profileflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "campaign run: -store required")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign run: %v\n", err)
		return 2
	}
	opt := campaign.Options{StoreDir: *storeDir, OutDir: *outDir, Log: os.Stdout}
	if *shard != "" {
		if _, err := fmt.Sscanf(*shard, "%d/%d", &opt.Shard, &opt.Shards); err != nil ||
			opt.Shards < 1 || opt.Shard < 0 || opt.Shard >= opt.Shards {
			fmt.Fprintf(os.Stderr, "campaign run: bad -shard %q (want i/n with 0 <= i < n)\n", *shard)
			return 2
		}
	}
	runner.SetLimit(*parallel)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign run: %v\n", err)
		return 1
	}
	defer stopProf()
	// After the pool width and the profile: the hook predicts every gated
	// artifact on the pool when it is built.
	if *screen {
		sets, err := report.LoadEmbedded()
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign run: loading refdata for -screen: %v\n", err)
			return 1
		}
		opt.Screen = report.ModelScreen(sets)
	}

	ctx, stop := drainContext("finishing in-flight units, then committing and stopping")
	defer stop()
	rep, err := campaign.Run(ctx, spec, opt)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "campaign run: interrupted after %d/%d units; re-run the same command to resume\n",
			rep.CacheHits+rep.Computed, rep.InShard)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign run: %v\n", err)
		return 1
	}
	fmt.Printf("campaign: %d units: %d cached, %d computed", rep.InShard, rep.CacheHits, rep.Computed)
	if rep.Screened > 0 {
		fmt.Printf(", %d screened", rep.Screened)
	}
	if len(rep.Failures) > 0 {
		fmt.Printf(", %d FAILED", len(rep.Failures))
	}
	fmt.Println()
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "campaign run: %s: %v\n", f.Unit.Name(), f.Err)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("campaign status", flag.ContinueOnError)
	loadSpec := specFlags(fs)
	var (
		storeDir = fs.String("store", "", "result store directory (required unless -server)")
		asJSON   = fs.Bool("json", false, "emit the status document as JSON (the same codec campaignd serves)")
		server   = fs.String("server", "", "campaignd base URL; show the server's live progress view instead of scanning a local store")
		follow   = fs.Bool("follow", false, "with -server: keep polling until every registered campaign is complete")
		every    = fs.Duration("every", 2*time.Second, "poll interval for -follow")
		logCfg   = obs.RegisterLogFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *server != "" {
		logger, err := logCfg.Logger(os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign status: %v\n", err)
			return 2
		}
		return statusFromServer(*server, *follow, *every, *asJSON, logger)
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "campaign status: -store or -server required")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign status: %v\n", err)
		return 2
	}
	store, ok := openStore("status", *storeDir)
	if !ok {
		return 1
	}
	sts, err := campaign.Status(spec, store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign status: %v\n", err)
		return 1
	}
	doc := campaign.NewStatusDoc(sts)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "campaign status: %v\n", err)
			return 1
		}
		return 0
	}
	t := stats.Table{Header: []string{"unit", "key", "state"}}
	for _, u := range doc.Units {
		t.AddRow(u.Name, u.Key[:12], string(u.State))
	}
	fmt.Print(t.String())
	fmt.Printf("%d/%d units done", doc.Done, doc.Total)
	if doc.Screened > 0 {
		fmt.Printf(" (%d screened)", doc.Screened)
	}
	fmt.Println()
	return 0
}

// statusFromServer renders campaignd's /v1/progress view: one shot by
// default, or a poll loop with -follow that exits 0 once the server
// reports every registered campaign complete.
func statusFromServer(server string, follow bool, every time.Duration, asJSON bool, logger *slog.Logger) int {
	ctx, stop := drainContext("stopping the status watch")
	defer stop()
	c := &client.Client{BaseURL: server, Logger: logger}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for {
		doc, err := c.Progress(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign status: %v\n", err)
			return 1
		}
		if asJSON {
			if err := enc.Encode(doc); err != nil {
				fmt.Fprintf(os.Stderr, "campaign status: %v\n", err)
				return 1
			}
		} else {
			renderProgress(os.Stdout, doc)
		}
		if !follow {
			return 0
		}
		if doc.Done {
			fmt.Println("campaign status: all campaigns complete")
			return 0
		}
		select {
		case <-ctx.Done():
			return 1
		case <-time.After(every):
		}
	}
}

// renderProgress prints one human-readable frame of the server's
// progress document: per-campaign completion with ETA, per-artifact
// unit-time estimates, and the worker fleet table.
func renderProgress(w io.Writer, doc *campaignd.ProgressDoc) {
	fmt.Fprintf(w, "server up %.0fs", doc.UptimeSeconds)
	if doc.Draining {
		fmt.Fprint(w, " (draining)")
	}
	fmt.Fprintln(w)
	if len(doc.Campaigns) == 0 {
		fmt.Fprintln(w, "no campaigns registered")
		return
	}
	for _, cp := range doc.Campaigns {
		fmt.Fprintf(w, "campaign %s: %d/%d done (%.0f%%)", cp.ID, cp.Done, cp.Total, cp.DonePct)
		if cp.Leased > 0 {
			fmt.Fprintf(w, ", %d leased", cp.Leased)
		}
		if cp.Failed > 0 {
			fmt.Fprintf(w, ", %d failed", cp.Failed)
		}
		if cp.Screened > 0 {
			fmt.Fprintf(w, ", %d screened", cp.Screened)
		}
		if cp.ETASeconds > 0 {
			fmt.Fprintf(w, ", ETA %s", fmtETA(cp.ETASeconds))
		}
		fmt.Fprintln(w)
		t := stats.Table{Header: []string{"artifact", "done", "total", "unit_s", "eta"}}
		for _, a := range cp.Artifacts {
			unitS, eta := "-", "-"
			if a.UnitSeconds > 0 {
				unitS = fmt.Sprintf("%.1f", a.UnitSeconds)
			}
			if a.ETASeconds > 0 {
				eta = fmtETA(a.ETASeconds)
			}
			t.AddRow(a.Artifact, fmt.Sprint(a.Done), fmt.Sprint(a.Total), unitS, eta)
		}
		fmt.Fprint(w, t.String())
	}
	if len(doc.Workers) > 0 {
		t := stats.Table{Header: []string{"worker", "active", "completed", "failed", "seen_ago_s"}}
		for _, wk := range doc.Workers {
			t.AddRow(wk.Worker, fmt.Sprint(wk.ActiveLeases), fmt.Sprint(wk.Completed),
				fmt.Sprint(wk.Failed), fmt.Sprintf("%.0f", wk.LastSeenAgoS))
		}
		fmt.Fprint(w, t.String())
	}
}

// fmtETA renders seconds as a compact human duration (90 -> "1m30s").
func fmtETA(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Second).String()
}

func cmdGC(args []string) int {
	fs := flag.NewFlagSet("campaign gc", flag.ContinueOnError)
	loadSpec := specFlags(fs)
	var (
		storeDir = fs.String("store", "", "result store directory (required)")
		dryRun   = fs.Bool("dry-run", false, "report what would be deleted without deleting")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "campaign gc: -store required")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign gc: %v\n", err)
		return 2
	}
	store, ok := openStore("gc", *storeDir)
	if !ok {
		return 1
	}
	rep, err := campaign.GC(spec, store, *dryRun)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign gc: %v\n", err)
		return 1
	}
	verb := "deleted"
	if *dryRun {
		verb = "would delete"
	}
	fmt.Printf("campaign gc: kept %d entries, %s %d\n", rep.Kept, verb, rep.Deleted)
	return 0
}

func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("campaign verify", flag.ContinueOnError)
	storeDir := fs.String("store", "", "result store directory (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "campaign verify: -store required")
		return 2
	}
	store, ok := openStore("verify", *storeDir)
	if !ok {
		return 1
	}
	bad, err := campaign.Verify(store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign verify: %v\n", err)
		return 1
	}
	for _, e := range bad {
		fmt.Fprintf(os.Stderr, "campaign verify: %v\n", e)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "campaign verify: %d corrupt entries\n", len(bad))
		return 1
	}
	fmt.Println("campaign verify: store is sound")
	return 0
}

func cmdSubmit(args []string) int {
	fs := flag.NewFlagSet("campaign submit", flag.ContinueOnError)
	loadSpec := specFlags(fs)
	server := fs.String("server", "", "campaignd base URL, e.g. http://127.0.0.1:8080 (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *server == "" {
		fmt.Fprintln(os.Stderr, "campaign submit: -server required")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign submit: %v\n", err)
		return 2
	}
	ctx, stop := drainContext("abandoning submission")
	defer stop()
	c := &client.Client{BaseURL: *server}
	doc, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign submit: %v\n", err)
		return 1
	}
	fmt.Printf("campaign %s: %d units (%d done, %d pending) across %s\n",
		doc.ID, doc.Status.Total, doc.Status.Done,
		doc.Status.Total-doc.Status.Done, strings.Join(doc.Artifacts, ","))
	fmt.Println(doc.ID)
	return 0
}

func cmdWorker(args []string) int {
	fs := flag.NewFlagSet("campaign worker", flag.ContinueOnError)
	var (
		server     = fs.String("server", "", "campaignd base URL (required)")
		campaignID = fs.String("campaign", "", "campaign id to work on (required; printed by submit)")
		name       = fs.String("name", "", "worker name for lease attribution (default host:pid)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for each unit's seed runs")
		logCfg     = obs.RegisterLogFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *server == "" || *campaignID == "" {
		fmt.Fprintln(os.Stderr, "campaign worker: -server and -campaign required")
		return 2
	}
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign worker: %v\n", err)
		return 2
	}
	runner.SetLimit(*parallel)
	ctx, stop := drainContext("abandoning the in-flight unit (its lease will expire and be re-issued)")
	defer stop()
	// One request id scopes the whole worker run: every HTTP call carries
	// it, so the server's access log groups this worker's traffic under a
	// single greppable id.
	ctx = obs.WithRequestID(ctx, obs.NewID())
	c := &client.Client{BaseURL: *server, Logger: logger}
	logger.InfoContext(ctx, "worker starting", "server", *server, "campaign", *campaignID)
	wstats, err := c.Work(ctx, *campaignID, *name)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "campaign worker: interrupted after %d unit(s) committed\n", wstats.Computed)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign worker: %v\n", err)
		return 1
	}
	fmt.Printf("campaign worker: done: %d computed, %d failed, %d wait rounds\n",
		wstats.Computed, wstats.Failed, wstats.Waited)
	return 0
}

func cmdSpans(args []string) int {
	fs := flag.NewFlagSet("campaign spans", flag.ContinueOnError)
	var (
		storeDir = fs.String("store", "", "result store directory (required)")
		outPath  = fs.String("out", "", "write Chrome trace JSON here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "campaign spans: -store required")
		return 2
	}
	store, ok := openStore("spans", *storeDir)
	if !ok {
		return 1
	}
	spans, err := campaign.ReadSpans(store.JournalPath())
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign spans: %v\n", err)
		return 1
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "campaign spans: no spans recorded in this store")
		return 1
	}
	// Timestamps are wall-clock nanoseconds; Chrome trace wants
	// microseconds from an arbitrary epoch, so rebase on the earliest
	// span to keep the numbers small and the timeline starting at zero.
	epoch := spans[0].StartUnixNs
	for _, s := range spans {
		if s.StartUnixNs < epoch {
			epoch = s.StartUnixNs
		}
	}
	tr := make([]trace.Span, 0, len(spans))
	for _, s := range spans {
		track := s.Worker
		if track == "" {
			track = "engine"
		}
		sargs := map[string]any{"unit": s.Unit}
		if len(s.Key) >= 12 {
			sargs["key"] = s.Key[:12]
		}
		if s.Note != "" {
			sargs["note"] = s.Note
		}
		tr = append(tr, trace.Span{
			Track:   track,
			Name:    s.Phase + " " + s.Unit,
			Cat:     s.Phase,
			StartUs: float64(s.StartUnixNs-epoch) / 1e3,
			DurUs:   float64(s.EndUnixNs-s.StartUnixNs) / 1e3,
			Args:    sargs,
		})
	}
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign spans: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteChromeSpans(w, "campaign "+*storeDir, tr); err != nil {
		fmt.Fprintf(os.Stderr, "campaign spans: %v\n", err)
		return 1
	}
	if *outPath != "" {
		fmt.Printf("campaign spans: wrote %d spans to %s (load in Perfetto or chrome://tracing)\n", len(tr), *outPath)
	}
	return 0
}
