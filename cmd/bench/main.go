// Command bench runs the repo's performance benchmark suite and writes a
// machine-readable snapshot to BENCH_<date>.json in the current directory
// (override with -out). Commit the file alongside performance-relevant
// changes so regressions are visible in history.
//
// The snapshot records five groups:
//
//   - scheduler: micro-benchmarks of the event queue (churn, timer-restart,
//     wide-fanout), with ns/op and allocs/op;
//   - simulator: end-to-end event throughput of a saturated two-pair
//     802.11b hotspot (events/sec, allocs/op), measured three ways —
//     pooled (the default), unpooled (DisablePooling, the seed
//     allocation behaviour, so the pooled-vs-seed allocation win stays
//     visible in history), and traced (flight recorder attached);
//   - pools: end-of-run pool occupancy of one representative world
//     (chunks grown, live/free, get/put churn per recycler);
//   - dense_world: run-only event throughput of multi-BSS grids of
//     growing size with the same per-cell workload, on the
//     neighbor-scoped medium (world construction is not timed);
//   - artifacts: a wall-clock matrix regenerating a representative
//     artifact set at runner widths 1, 4, and GOMAXPROCS (each case
//     records its own gomaxprocs and parallel_limit), asserting the
//     outputs byte-identical across widths.
//
// Usage:
//
//	bench             # full suite, ~a minute
//	bench -quick      # shorter benchtime, smaller artifact set
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"greedy80211/internal/experiments"
	"greedy80211/internal/phys"
	"greedy80211/internal/runner"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
	"greedy80211/internal/versionflag"
)

type benchEntry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// GOMAXPROCS records the proc count in effect while this case ran,
	// so per-case conditions survive into history even when the matrix
	// varies them.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// runnerCase is one cell of the artifact wall-clock matrix: the worker
// pool pinned to ParallelLimit with runtime procs at GOMAXPROCS.
type runnerCase struct {
	ParallelLimit int     `json:"parallel_limit"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Secs          float64 `json:"secs"`
	// Speedup is relative to the width-1 case of the same matrix.
	Speedup float64 `json:"speedup"`
}

type wallClock struct {
	Artifacts []string `json:"artifacts"`
	// Cases is the width matrix (1, 4, GOMAXPROCS — deduplicated). The
	// flat fields mirror the width-1 and widest cases for the report
	// footer, which quotes speedup and parallel_limit.
	Cases          []runnerCase `json:"cases"`
	SequentialSecs float64      `json:"sequential_secs"`
	ParallelSecs   float64      `json:"parallel_secs"`
	ParallelLimit  int          `json:"parallel_limit"`
	Speedup        float64      `json:"speedup"`
}

type snapshot struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Scheduler  []benchEntry `json:"scheduler"`
	Simulator  benchEntry   `json:"simulator"`
	// SimulatorUnpooled is the same workload with the frame/packet pools
	// disabled — the seed's per-exchange allocation behaviour. The gap to
	// Simulator is the pooled-vs-seed allocation report.
	SimulatorUnpooled benchEntry `json:"simulator_unpooled"`
	// SimulatorTraced is the same workload with a flight recorder attached
	// (medium tap + MAC probes on every station); compare against Simulator
	// to see the tracing overhead. Simulator itself runs with tracing
	// disabled, so its allocs/op doubles as the zero-cost-when-disabled
	// guard against earlier snapshots.
	SimulatorTraced benchEntry `json:"simulator_traced"`
	// Pools is the end-of-run pool occupancy of one representative pooled
	// world (seed 1, one simulated second).
	Pools scenario.PoolStats `json:"pools"`
	// DenseWorld times neighbor-scoped delivery on multi-BSS grids of
	// growing size. Events/sec should track the (small, constant)
	// neighbor sets, not the total radio count.
	DenseWorld denseWorldBench `json:"dense_world"`
	Artifacts  wallClock       `json:"artifacts"`
}

// denseWorldBench is the grid-size matrix: the same per-cell workload at
// growing grid sizes.
type denseWorldBench struct {
	Channels        int              `json:"channels"`
	StationsPerCell int              `json:"stations_per_cell"`
	Cases           []denseWorldCase `json:"cases"`
}

// denseWorldCase is one grid size of the matrix.
type denseWorldCase struct {
	Cells int `json:"cells"`
	// Radios is the total radio count (APs + stations).
	Radios int `json:"radios"`
	// AvgNeighbors is the mean per-radio co-channel in-CS-range neighbor
	// count — the fan-out one transmission pays.
	AvgNeighbors float64    `json:"avg_neighbors"`
	Scoped       benchEntry `json:"scoped"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		outDir  = fs.String("out", ".", "directory for the BENCH_<date>.json snapshot")
		quick   = fs.Bool("quick", false, "shorter benchtime and a smaller artifact set")
		version = versionflag.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if versionflag.Handle(version, os.Stdout, "bench") {
		return 0
	}

	snap := snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}

	fmt.Println("scheduler micro-benchmarks:")
	for _, mb := range schedulerBenchmarks() {
		r := testing.Benchmark(mb.fn)
		e := toEntry(mb.name, r)
		snap.Scheduler = append(snap.Scheduler, e)
		fmt.Printf("  %-24s %10.2f ns/op %6d allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	}

	fmt.Println("simulator throughput:")
	snap.Simulator = toEntry("SimulatorThroughput", testing.Benchmark(benchSimulatorThroughput))
	fmt.Printf("  %-24s %10.0f events/sec %6d allocs/op\n",
		snap.Simulator.Name, snap.Simulator.EventsPerSec, snap.Simulator.AllocsPerOp)
	snap.SimulatorUnpooled = toEntry("SimulatorUnpooled", testing.Benchmark(benchSimulatorUnpooled))
	fmt.Printf("  %-24s %10.0f events/sec %6d allocs/op\n",
		snap.SimulatorUnpooled.Name, snap.SimulatorUnpooled.EventsPerSec, snap.SimulatorUnpooled.AllocsPerOp)
	if snap.SimulatorUnpooled.AllocsPerOp > 0 {
		fmt.Printf("  pooling cuts allocs/op %.1fx (%d -> %d)\n",
			float64(snap.SimulatorUnpooled.AllocsPerOp)/float64(max64(snap.Simulator.AllocsPerOp, 1)),
			snap.SimulatorUnpooled.AllocsPerOp, snap.Simulator.AllocsPerOp)
	}
	snap.SimulatorTraced = toEntry("SimulatorTraced", testing.Benchmark(benchSimulatorTraced))
	fmt.Printf("  %-24s %10.0f events/sec %6d allocs/op\n",
		snap.SimulatorTraced.Name, snap.SimulatorTraced.EventsPerSec, snap.SimulatorTraced.AllocsPerOp)
	if snap.Simulator.EventsPerSec > 0 {
		fmt.Printf("  tracing overhead: %.1f%% events/sec\n",
			100*(1-snap.SimulatorTraced.EventsPerSec/snap.Simulator.EventsPerSec))
	}

	pools, err := poolSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	snap.Pools = pools
	fmt.Printf("pool occupancy (1 world, 1 sim-second): frames gets=%d chunks=%d, packets gets=%d chunks=%d, events gets=%d chunks=%d\n",
		pools.Frames.Gets, pools.Frames.Chunks, pools.Packets.Gets, pools.Packets.Chunks,
		pools.Events.Gets, pools.Events.Chunks)

	dense, err := denseWorldSnapshot(*quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	snap.DenseWorld = dense
	fmt.Printf("dense world (%d-channel plan, %d stations/cell, identical per-cell workload):\n",
		dense.Channels, dense.StationsPerCell)
	for _, c := range dense.Cases {
		fmt.Printf("  cells=%-4d radios=%-5d neighbors=%-5.1f %10.0f events/sec\n",
			c.Cells, c.Radios, c.AvgNeighbors, c.Scoped.EventsPerSec)
	}

	ids := []string{"fig2", "fig5", "fig14", "tab1", "abl1"}
	if *quick {
		ids = []string{"fig2", "tab1"}
	}
	wc, err := measureArtifacts(ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	snap.Artifacts = wc
	fmt.Printf("artifact regeneration (%v):\n", ids)
	for _, c := range wc.Cases {
		fmt.Printf("  parallel=%-3d gomaxprocs=%-3d %6.2fs  speedup %.2fx\n",
			c.ParallelLimit, c.GOMAXPROCS, c.Secs, c.Speedup)
	}

	path := filepath.Join(*outDir, "BENCH_"+snap.Date+".json")
	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func toEntry(name string, r testing.BenchmarkResult) benchEntry {
	e := benchEntry{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if v, ok := r.Extra["events/op"]; ok {
		e.EventsPerOp = v
	}
	if v, ok := r.Extra["events/sec"]; ok {
		e.EventsPerSec = v
	}
	return e
}

type microBench struct {
	name string
	fn   func(b *testing.B)
}

// schedulerBenchmarks mirrors the suite in internal/sim/sim_test.go; they
// are re-stated here because testing.Benchmark cannot invoke test-file
// benchmarks from another package.
func schedulerBenchmarks() []microBench {
	return []microBench{
		{"SchedulerChurn", func(b *testing.B) {
			b.ReportAllocs()
			s := sim.NewScheduler(1)
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < b.N {
					s.Schedule(sim.Microsecond, tick)
				}
			}
			b.ResetTimer()
			s.Schedule(0, tick)
			s.Run()
		}},
		{"SchedulerTimerRestart", func(b *testing.B) {
			b.ReportAllocs()
			s := sim.NewScheduler(1)
			timeout := sim.NewTimer(s, func() {})
			n := 0
			var tick func()
			tick = func() {
				n++
				if n >= b.N {
					timeout.Stop()
					return
				}
				timeout.Start(50 * sim.Microsecond)
				s.Schedule(sim.Microsecond, tick)
			}
			b.ResetTimer()
			s.Schedule(0, tick)
			s.Run()
		}},
		{"SchedulerFanout", func(b *testing.B) {
			b.ReportAllocs()
			s := sim.NewScheduler(1)
			const width = 4096
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < b.N {
					s.Schedule(sim.Time(width)*sim.Microsecond, tick)
				}
			}
			for i := 0; i < width; i++ {
				s.Schedule(sim.Time(i)*sim.Microsecond, tick)
			}
			b.ResetTimer()
			s.Run()
		}},
	}
}

func benchSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		w, err := scenario.BuildPairs(scenario.PairsConfig{
			Config:    scenario.Config{Seed: int64(i + 1), UseRTSCTS: true},
			N:         2,
			Transport: scenario.UDP,
		})
		if err != nil {
			b.Fatal(err)
		}
		w.Run(sim.Second)
		events += w.Sched.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// benchSimulatorTraced is benchSimulatorThroughput with a flight recorder
// (channel tap + per-station MAC probes) attached — the tracing-on cost.
func benchSimulatorTraced(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		w, err := scenario.BuildPairs(scenario.PairsConfig{
			Config:    scenario.Config{Seed: int64(i + 1), UseRTSCTS: true},
			N:         2,
			Transport: scenario.UDP,
		})
		if err != nil {
			b.Fatal(err)
		}
		rec := trace.NewRecorder(0)
		w.AttachTrace(rec, rec)
		w.Run(sim.Second)
		events += w.Sched.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// measureArtifacts regenerates the given artifact set in quick mode at
// every runner width in the matrix (1, 4, GOMAXPROCS — deduplicated,
// ascending), pinning runtime procs to the width for each case, and
// asserts the outputs byte-identical across widths. The flat
// sequential/parallel fields mirror the narrowest and widest cases for
// the report footer.
func measureArtifacts(ids []string) (wallClock, error) {
	cfg := experiments.RunConfig{Quick: true, BaseSeed: 11}
	prevLimit := runner.Limit()
	defer runner.SetLimit(prevLimit)
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	widths := []int{1}
	for _, w := range []int{4, prevProcs} {
		if w > widths[len(widths)-1] {
			widths = append(widths, w)
		}
	}

	regenerate := func() (map[string]string, time.Duration, error) {
		out := make(map[string]string, len(ids))
		start := time.Now()
		for _, id := range ids {
			res, err := experiments.Run(id, cfg)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", id, err)
			}
			out[id] = res.String()
		}
		return out, time.Since(start), nil
	}

	wc := wallClock{Artifacts: ids}
	var baseOut map[string]string
	for _, width := range widths {
		runtime.GOMAXPROCS(width)
		runner.SetLimit(width)
		out, dur, err := regenerate()
		if err != nil {
			return wallClock{}, err
		}
		if baseOut == nil {
			baseOut = out
		} else {
			for _, id := range ids {
				if out[id] != baseOut[id] {
					return wallClock{}, fmt.Errorf("%s: output at width %d differs from width %d",
						id, width, widths[0])
				}
			}
		}
		c := runnerCase{ParallelLimit: width, GOMAXPROCS: width, Secs: dur.Seconds()}
		if base := wc.Cases; len(base) > 0 && c.Secs > 0 {
			c.Speedup = base[0].Secs / c.Secs
		} else {
			c.Speedup = 1
		}
		wc.Cases = append(wc.Cases, c)
	}
	first, last := wc.Cases[0], wc.Cases[len(wc.Cases)-1]
	wc.SequentialSecs = first.Secs
	wc.ParallelSecs = last.Secs
	wc.ParallelLimit = last.ParallelLimit
	wc.Speedup = last.Speedup
	return wc, nil
}

// benchSimulatorUnpooled is benchSimulatorThroughput with the frame and
// packet pools disabled — the seed's allocation behaviour, kept measured
// so the pooled-vs-seed gap stays visible in committed snapshots.
func benchSimulatorUnpooled(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		w, err := scenario.BuildPairs(scenario.PairsConfig{
			Config:    scenario.Config{Seed: int64(i + 1), UseRTSCTS: true, DisablePooling: true},
			N:         2,
			Transport: scenario.UDP,
		})
		if err != nil {
			b.Fatal(err)
		}
		w.Run(sim.Second)
		events += w.Sched.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// Dense-world comparison: grids of BSSs on a 3-channel plan with
// hotspot-scale (GRC evaluation) propagation, so each BSS
// carrier-senses only itself. Per-cell workload (stations, uplink mix,
// rate) is identical at every grid size, so the per-event cost should
// track the constant neighbor count, not the grid. Only the run is
// timed: world construction happens with the benchmark timer stopped,
// so events/sec, ns/op and allocs/op describe the simulation alone.
const (
	denseWorldChannels = 3
	denseWorldStations = 20
	denseWorldUplink   = 5
	denseWorldRateBps  = 2e5
	denseWorldRun      = 500 * sim.Millisecond
)

// denseWorldGrids are the matrix's grid sizes: the 4×4 reference, then
// wider grids.
var denseWorldGrids = []int{16, 49, 100}

func buildDenseWorld(seed int64, cells int) (*scenario.World, error) {
	prop := phys.GRCPropagation()
	return scenario.BuildCells(scenario.CellsConfig{
		Config: scenario.Config{Seed: seed, Propagation: &prop},
		Topology: scenario.TopologySpec{
			NumCells:        cells,
			ChannelPlan:     []int{1, 6, 11},
			DefaultStations: denseWorldStations,
			DefaultUplink:   denseWorldUplink,
		},
		CBRRateBps: denseWorldRateBps,
	})
}

func benchDenseWorld(cells int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := buildDenseWorld(int64(i+1), cells)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			w.Run(denseWorldRun)
			events += w.Sched.Executed()
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(events)/secs, "events/sec")
		}
	}
}

func denseWorldSnapshot(quick bool) (denseWorldBench, error) {
	d := denseWorldBench{
		Channels:        denseWorldChannels,
		StationsPerCell: denseWorldStations,
	}
	grids := denseWorldGrids
	if quick {
		grids = grids[:1]
	}
	for _, cells := range grids {
		c := denseWorldCase{Cells: cells, Radios: cells * (denseWorldStations + 1)}
		// Topology census on one instance of the world.
		w, err := buildDenseWorld(1, cells)
		if err != nil {
			return denseWorldBench{}, err
		}
		var total int
		for cell := 0; cell < cells; cell++ {
			ap, _ := w.Station(scenario.CellAPName(cell))
			total += w.Medium.NeighborCount(ap.ID)
			for s := 0; s < denseWorldStations; s++ {
				st, _ := w.Station(scenario.CellStationName(cell, s))
				total += w.Medium.NeighborCount(st.ID)
			}
		}
		c.AvgNeighbors = float64(total) / float64(c.Radios)
		name := fmt.Sprintf("DenseWorld%dCells", cells)
		c.Scoped = toEntry(name+"Scoped", testing.Benchmark(benchDenseWorld(cells)))
		d.Cases = append(d.Cases, c)
	}
	return d, nil
}

// poolSnapshot runs one representative pooled world and reports its
// end-of-run pool occupancy.
func poolSnapshot() (scenario.PoolStats, error) {
	w, err := scenario.BuildPairs(scenario.PairsConfig{
		Config:    scenario.Config{Seed: 1, UseRTSCTS: true},
		N:         2,
		Transport: scenario.UDP,
	})
	if err != nil {
		return scenario.PoolStats{}, err
	}
	w.Run(sim.Second)
	return w.PoolStats(), nil
}
