// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed number of seconds, checks the program's outputs,
// and prints one JSON result as its last line of standard output:
//
//	perfbench --workload gate --seed 1 --seconds 15 --trace 0
//	perfbench compare base.jsonl head.jsonl
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 untraced and traced passes alternate: the
// traced passes record spans around every call into a layer and give the
// per-layer metrics, and the difference between the two kinds of pass is
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"greedy80211/internal/runner"
)

// sample is one measured pass of a workload.
type sample struct {
	wall, cpu time.Duration
	// events is the scheduler events the pass simulated, units the
	// workload's units of work it completed, and warm the units it
	// re-served from results already computed, over warmWall.
	events, units, warm float64
	warmWall            time.Duration
	// census holds exact counts that must repeat on every pass of a run,
	// traced or not; perRun holds exact counts made once per run, which
	// passes do not re-derive and so are not compared; layer holds
	// per-layer timings and sizes, kept from traced passes only.
	census map[string]float64
	perRun map[string]float64
	layer  map[string]float64
}

// workload is one benchmark input.
type workload interface {
	// setup prepares the next pass and returns the set-up time.
	setup(tr *tracer) (time.Duration, error)
	// pass runs one pass, timing its measured phases itself, and
	// returns an error when any output check fails.
	pass(tr *tracer) (sample, error)
}

func newWorkload(name string, seed int64, root, work string) (workload, error) {
	switch name {
	case "gate":
		return newGate(root)
	case "dense":
		return newDense(seed), nil
	case "campaign":
		return newCampaign(seed, work)
	case "forensics":
		return &forensicsBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want gate, dense, campaign or forensics)", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what compare reads: one run with its provenance.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Passes   int    `json:"passes"`
	Host     host   `json:"host"`
	// StealFrac is the share of the machine's CPU time that the
	// hypervisor gave to other guests during the run; a high value marks
	// a run made on a contended host.
	StealFrac float64 `json:"steal_frac"`
	Result    result  `json:"result"`
	Samples   samples `json:"samples"`
}

// samples keeps every per-pass value behind the reported medians.
type samples struct {
	SetupS []float64 `json:"setup_s"`
	WallS  []float64 `json:"wall_s"`
	CPUS   []float64 `json:"cpu_s"`
}

// outDir, relative to the repository root, receives span files, the
// results log and the temporary stores.
const outDir = ".bench_build/perfbench"

const (
	minPasses = 2 // a run needs two passes to check determinism
	// Set-up is timed in samples of consecutive set-ups that add up to at
	// least setupSample, so a sub-millisecond set-up is timed over many
	// calls. A run takes samples up front, until there are setupSamples
	// and they took setupBudget, and more before every untraced pass,
	// until they took setupPerPass, so they span the run as the passes
	// do; setup_s is their median.
	setupSample  = 20 * time.Millisecond
	setupSamples = 5
	setupBudget  = 500 * time.Millisecond
	setupPerPass = 100 * time.Millisecond
	maxPerSample = 10000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "gate, dense, campaign or forensics")
		seed    = fs.Int64("seed", 1, "input seed (gate and forensics run the pinned refdata profile)")
		seconds = fs.Int("seconds", 20, "how long to measure")
		traced  = fs.Int("trace", 0, "1: alternate traced and untraced passes and report per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	runner.SetLimit(nproc)

	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	w, err := newWorkload(*name, *seed, root, work)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	total0, steal0 := cpuTicks()
	rs, err := measure(w, time.Duration(*seconds)*time.Second, tr, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	total1, steal1 := cpuTicks()
	rec := record{
		Workload: *name, Seed: *seed, Trace: *traced, Seconds: *seconds,
		Passes: len(rs.untraced) + len(rs.traced), Host: hostInfo(root),
		Samples:   rs.samples(),
		StealFrac: ratio(float64(steal1-steal0), float64(total1-total0)),
	}
	rec.Result = result{
		Correct:   rs.failed == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
	}
	if tr != nil {
		rec.Result.Metrics = rs.perLayer(nproc)
		spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := writeSpanFile(spanFile, "perfbench "+*name, rs.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", spanFile)
	} else {
		rec.Result.Metrics = rs.endToEnd()
	}
	if err := appendRecord(filepath.Join(outDir, "results.jsonl"), rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printSummary(stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runSamples is everything one run measured.
type runSamples struct {
	setups            []time.Duration // per-set-up mean of each set-up sample
	untraced, traced  []sample
	attempted, failed int
	spans             []span
	tracedPasses      []int // pass ids of the traced passes
}

// measure times set-up samples, then runs passes until the time budget
// is spent: it starts another pass while at least half of one still
// fits. In a traced run, odd passes are traced. Every pass is an
// attempted operation; a pass whose checks fail, or whose census differs
// from the first pass's, is a failed one and contributes no timing.
func measure(w workload, budget time.Duration, tr *tracer, logw io.Writer) (*runSamples, error) {
	rs := &runSamples{}
	var spent time.Duration
	for n := 0; n < setupSamples || spent < setupBudget; n++ {
		sum, err := rs.timeSetup(w)
		if err != nil {
			return nil, err
		}
		spent += sum
	}
	var first map[string]float64
	var passTimes []float64
	start := time.Now()
	for i := 0; ; i++ {
		var ptr *tracer
		if tr != nil && i%2 == 1 {
			ptr = tr
		}
		t0 := time.Now()
		passSpan := ptr.beginPass(i)
		if i > 0 && ptr == nil { // pass 0 runs on the last set-up above
			for spent = 0; spent < setupPerPass; {
				sum, err := rs.timeSetup(w)
				if err != nil {
					return nil, err
				}
				spent += sum
			}
		} else if i > 0 {
			runtime.GC()
			if _, err := w.setup(ptr); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		runtime.GC() // start every pass from a collected heap
		s, err := w.pass(ptr)
		ptr.close(passSpan)
		rs.attempted++
		if err == nil && first != nil {
			err = sameCensus(first, s.census)
		}
		if err != nil {
			rs.failed++
			fmt.Fprintf(logw, "perfbench: pass %d failed: %v\n", i, err)
		} else {
			if first == nil {
				first = s.census
			}
			if ptr != nil {
				rs.traced = append(rs.traced, s)
				rs.tracedPasses = append(rs.tracedPasses, i)
			} else {
				rs.untraced = append(rs.untraced, s)
			}
		}
		passTimes = append(passTimes, time.Since(t0).Seconds())
		elapsed := time.Since(start)
		next := time.Duration(median(passTimes) * float64(time.Second))
		enough := i+1 >= minPasses && (tr == nil || len(rs.traced) > 0 || rs.failed > 0)
		if enough && elapsed+next/2 > budget {
			break
		}
	}
	if tr != nil {
		rs.spans = tr.snapshot()
	}
	return rs, nil
}

// timeSetup takes one set-up sample, which leaves the workload set up
// for a pass, and returns the sample's total set-up time.
func (rs *runSamples) timeSetup(w workload) (time.Duration, error) {
	runtime.GC()
	var sum time.Duration
	k := 0
	for ; k == 0 || (sum < setupSample && k < maxPerSample); k++ {
		d, err := w.setup(nil)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		sum += d
	}
	rs.setups = append(rs.setups, sum/time.Duration(k))
	return sum, nil
}

func sameCensus(want, got map[string]float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Errorf("census %s = %v, first pass had %v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return errors.New("census keys differ from the first pass")
	}
	return nil
}

func (rs *runSamples) samples() samples {
	var out samples
	for _, d := range rs.setups {
		out.SetupS = append(out.SetupS, secs(d))
	}
	for _, s := range rs.untraced {
		out.WallS = append(out.WallS, secs(s.wall))
		out.CPUS = append(out.CPUS, secs(s.cpu))
	}
	return out
}

// pick collects one value per sample.
func pick(ss []sample, f func(s sample) float64) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, f(s))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd reduces the untraced passes to the end-to-end metrics.
func (rs *runSamples) endToEnd() map[string]metric {
	u := rs.untraced
	vals := map[string]float64{
		"wall_s":           median(pick(u, func(s sample) float64 { return secs(s.wall) })),
		"cpu_s":            median(pick(u, func(s sample) float64 { return secs(s.cpu) })),
		"peak_rss_mb":      peakRSSMB(),
		"events_per_s":     median(pick(u, func(s sample) float64 { return ratio(s.events, secs(s.wall)) })),
		"units_per_s":      median(pick(u, func(s sample) float64 { return ratio(s.units, secs(s.wall)) })),
		"warm_units_per_s": median(pick(u, func(s sample) float64 { return ratio(s.warm, secs(s.warmWall)) })),
	}
	setups := make([]float64, len(rs.setups))
	for i, d := range rs.setups {
		setups[i] = secs(d)
	}
	vals["setup_s"] = median(setups)
	out := make(map[string]metric, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// perLayer reduces a traced run to the per-layer metrics: the census of
// the first pass, per-layer values and self times as medians over the
// traced passes, runner occupancy from the untraced passes, and the
// tracing overhead. Layers the workload never reaches report zero.
func (rs *runSamples) perLayer(nproc int) map[string]metric {
	vals := map[string]float64{}
	all := append(append([]sample(nil), rs.untraced...), rs.traced...)
	if len(all) > 0 {
		for k, v := range all[0].perRun {
			vals[k] = v
		}
		for k, v := range all[0].census {
			vals[k] = v
		}
	}
	layerKeys := map[string]bool{}
	for _, s := range rs.traced {
		for k := range s.layer {
			layerKeys[k] = true
		}
	}
	for k := range layerKeys {
		vals[k] = median(pick(rs.traced, func(s sample) float64 { return s.layer[k] }))
	}
	selfKeys := map[string][]float64{}
	for _, p := range rs.tracedPasses {
		for layer, d := range selfTimes(rs.spans, p) {
			selfKeys[layer+".self_s"] = append(selfKeys[layer+".self_s"], secs(d))
		}
	}
	for k, xs := range selfKeys {
		vals[k] = median(xs)
	}
	vals["runner.busy_frac"] = median(pick(rs.untraced, func(s sample) float64 {
		return ratio(secs(s.cpu), secs(s.wall)*float64(nproc))
	}))
	vals["bench.trace_overhead_s"] = median(pick(rs.traced, func(s sample) float64 { return secs(s.wall) })) -
		median(pick(rs.untraced, func(s sample) float64 { return secs(s.wall) }))
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

func writeSpanFile(path, process string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, process, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSummary(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d: %d passes, %d/%d failed, steal %.1f%%\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Passes, rec.Result.Failed, rec.Result.Attempted, 100*rec.StealFrac)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d runner_limit=%d %s cpu=%q commit=%s src=%.12s\n",
		h.NProc, h.GOMAXPROCS, h.RunnerLimit, h.GoVersion, h.CPUModel, h.Commit, h.SourceSHA256)
	if len(rec.Samples.WallS) > 0 {
		fmt.Fprintf(w, "wall_s samples (n=%d): %s\n", len(rec.Samples.WallS), fmtList(rec.Samples.WallS))
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}
