// Command report is the reproduction gate: it regenerates the gated
// artifacts (or reads them from a campaign store), joins every pinned
// data point against the checked-in golden values in
// internal/report/refdata/, and writes RESULTS.md plus an optional
// verdicts.json. The exit status is the gate: nonzero when any check
// fails or goes missing (and, with -strict, when any drifts).
//
// Usage:
//
//	report                             # fresh run, write RESULTS.md + verdicts.json
//	report -store .report-store        # compute-through-cache, byte-identical on a warm store
//	report -store s -no-compute        # CI read-only mode: a cold store gates as missing
//	report -out - -verdicts ""         # report to stdout, no verdicts file
//	report -refdata dir/               # override the embedded golden set (CI negative test)
//	report -check-docs                 # verify EXPERIMENTS.md's artifact↔paper map is current
//	report -write-docs                 # regenerate that map in place
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"greedy80211/internal/campaign"
	"greedy80211/internal/profileflags"
	"greedy80211/internal/report"
	"greedy80211/internal/runner"
	"greedy80211/internal/versionflag"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		out          = fs.String("out", "RESULTS.md", "write the Markdown report here (\"-\" for stdout)")
		verdicts     = fs.String("verdicts", "verdicts.json", "write machine-readable verdicts here (empty to skip)")
		store        = fs.String("store", "", "campaign store directory; empty runs everything fresh")
		noComp       = fs.Bool("no-compute", false, "with -store: never simulate, gate on whatever the store holds")
		refdata      = fs.String("refdata", "", "load golden values from this directory instead of the embedded set")
		strict       = fs.Bool("strict", false, "drift verdicts gate too")
		analyticGate = fs.Bool("analytic-gate", false,
			"fail when any model-banded check has a missing analytic prediction (model drift/fail stay advisory)")
		docsPath    = fs.String("docs", "EXPERIMENTS.md", "document carrying the artifact↔paper map block")
		checkDoc    = fs.Bool("check-docs", false, "verify the map block in -docs is current, then exit")
		writeDoc    = fs.Bool("write-docs", false, "regenerate the map block in -docs in place, then exit")
		traceOnFail = fs.String("trace-on-fail", "",
			"when the gate fails, re-run each gating artifact with a flight recorder and write JSONL traces, timelines, and invariant summaries into this directory")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"worker-pool size for artifact regeneration; 1 = sequential (output is identical either way)")
		version = versionflag.Register(fs)
		prof    = profileflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if versionflag.Handle(version, os.Stdout, "report") {
		return 0
	}
	if *noComp && *store == "" {
		fmt.Fprintln(os.Stderr, "report: -no-compute requires -store (without a store every artifact would be simulated)")
		return 2
	}
	runner.SetLimit(*parallel)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}
	defer stopProf()

	sets, err := loadSets(*refdata)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}

	if *checkDoc || *writeDoc {
		return runDocs(*docsPath, sets, *writeDoc)
	}

	var rep *report.Report
	if *store != "" {
		var st *campaign.Store
		st, err = campaign.OpenStore(*store)
		if err == nil {
			rep, err = report.FromStore(context.Background(), sets, st, !*noComp, os.Stderr)
		}
	} else {
		rep, err = report.ComputeFresh(sets)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}

	var md strings.Builder
	report.RenderMarkdown(&md, rep, nil)
	if *out == "-" {
		fmt.Print(md.String())
	} else if err := os.WriteFile(*out, []byte(md.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}
	if *verdicts != "" {
		f, err := os.Create(*verdicts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
		err = report.WriteVerdicts(f, rep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(os.Stderr, "report: %d checks — %d pass, %d drift, %d fail, %d missing\n",
		rep.Checks(), rep.Pass, rep.Drift, rep.Fail, rep.Missing)
	fmt.Fprintf(os.Stderr, "report: analytic tier — %d model checks: %d pass, %d drift, %d fail, %d missing\n",
		rep.ModelChecks(), rep.ModelPass, rep.ModelDrift, rep.ModelFail, rep.ModelMissing)
	if *analyticGate && rep.ModelMissing > 0 {
		fmt.Fprintf(os.Stderr, "report: %d model-banded checks without predictions — analytic gate FAILED\n",
			rep.ModelMissing)
		return 1
	}
	if n := rep.Gating(*strict); n > 0 {
		fmt.Fprintf(os.Stderr, "report: %d gating verdicts — reproduction gate FAILED\n", n)
		if *traceOnFail != "" {
			ids := rep.FailedArtifacts(*strict)
			paths, err := report.CaptureTraces(rep.Config, ids, *traceOnFail)
			if err != nil {
				fmt.Fprintf(os.Stderr, "report: capturing traces: %v\n", err)
			}
			fmt.Fprintf(os.Stderr, "report: %d flight-recorder files for %s written to %s\n",
				len(paths), strings.Join(ids, ", "), *traceOnFail)
		}
		return 1
	}
	return 0
}

func loadSets(dir string) ([]*report.RefSet, error) {
	if dir != "" {
		return report.LoadDir(dir)
	}
	return report.LoadEmbedded()
}

func runDocs(path string, sets []*report.RefSet, write bool) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}
	if write {
		updated, err := report.UpdateDocs(string(raw), sets)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
		if updated == string(raw) {
			fmt.Fprintf(os.Stderr, "report: %s map block already current\n", path)
			return 0
		}
		if err := os.WriteFile(path, []byte(updated), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "report: %s map block regenerated\n", path)
		return 0
	}
	if err := report.CheckDocs(string(raw), sets); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "report: %s map block is current\n", path)
	return 0
}
