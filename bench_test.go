// Package main_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper. Each iteration regenerates
// the artifact end to end (scenario construction, multi-seed simulation,
// extraction) in quick mode; run with
//
//	go test -bench=. -benchmem
//
// For paper-faithful sweeps (5 seeds × 5 s per point) use
// cmd/experiments instead; benchmarks favor bounded runtime.
package main_test

import (
	"fmt"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

// benchArtifact runs one registered artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.RunConfig{Quick: true, BaseSeed: 11}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 && len(res.Series) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// One benchmark per evaluation artifact (fig20 is a flow chart; no data).

func BenchmarkExpFig1(b *testing.B)  { benchArtifact(b, "fig1") }
func BenchmarkExpFig2(b *testing.B)  { benchArtifact(b, "fig2") }
func BenchmarkExpFig3(b *testing.B)  { benchArtifact(b, "fig3") }
func BenchmarkExpFig4(b *testing.B)  { benchArtifact(b, "fig4") }
func BenchmarkExpFig5(b *testing.B)  { benchArtifact(b, "fig5") }
func BenchmarkExpFig6(b *testing.B)  { benchArtifact(b, "fig6") }
func BenchmarkExpFig7(b *testing.B)  { benchArtifact(b, "fig7") }
func BenchmarkExpFig8(b *testing.B)  { benchArtifact(b, "fig8") }
func BenchmarkExpFig9(b *testing.B)  { benchArtifact(b, "fig9") }
func BenchmarkExpFig10(b *testing.B) { benchArtifact(b, "fig10") }
func BenchmarkExpFig11(b *testing.B) { benchArtifact(b, "fig11") }
func BenchmarkExpFig12(b *testing.B) { benchArtifact(b, "fig12") }
func BenchmarkExpFig13(b *testing.B) { benchArtifact(b, "fig13") }
func BenchmarkExpFig14(b *testing.B) { benchArtifact(b, "fig14") }
func BenchmarkExpFig15(b *testing.B) { benchArtifact(b, "fig15") }
func BenchmarkExpFig16(b *testing.B) { benchArtifact(b, "fig16") }
func BenchmarkExpFig17(b *testing.B) { benchArtifact(b, "fig17") }
func BenchmarkExpFig18(b *testing.B) { benchArtifact(b, "fig18") }
func BenchmarkExpFig19(b *testing.B) { benchArtifact(b, "fig19") }
func BenchmarkExpFig21(b *testing.B) { benchArtifact(b, "fig21") }
func BenchmarkExpFig22(b *testing.B) { benchArtifact(b, "fig22") }
func BenchmarkExpFig23(b *testing.B) { benchArtifact(b, "fig23") }
func BenchmarkExpFig24(b *testing.B) { benchArtifact(b, "fig24") }
func BenchmarkExpTab1(b *testing.B)  { benchArtifact(b, "tab1") }
func BenchmarkExpTab2(b *testing.B)  { benchArtifact(b, "tab2") }
func BenchmarkExpTab3(b *testing.B)  { benchArtifact(b, "tab3") }
func BenchmarkExpTab4(b *testing.B)  { benchArtifact(b, "tab4") }
func BenchmarkExpTab5(b *testing.B)  { benchArtifact(b, "tab5") }
func BenchmarkExpTab6(b *testing.B)  { benchArtifact(b, "tab6") }
func BenchmarkExpTab7(b *testing.B)  { benchArtifact(b, "tab7") }
func BenchmarkExpTab8(b *testing.B)  { benchArtifact(b, "tab8") }
func BenchmarkExpTab9(b *testing.B)  { benchArtifact(b, "tab9") }
func BenchmarkExpExtA(b *testing.B)  { benchArtifact(b, "exta") }
func BenchmarkExpExtB(b *testing.B)  { benchArtifact(b, "extb") }
func BenchmarkExpExtC(b *testing.B)  { benchArtifact(b, "extc") }
func BenchmarkExpAbl1(b *testing.B)  { benchArtifact(b, "abl1") }
func BenchmarkExpAbl2(b *testing.B)  { benchArtifact(b, "abl2") }
func BenchmarkExpAbl3(b *testing.B)  { benchArtifact(b, "abl3") }

// BenchmarkSimulatorThroughput measures raw simulator speed on a saturated
// two-pair 802.11b UDP hotspot: one op is one simulated second. Events are
// accumulated across iterations and reported once, normalized per op and
// per wall-clock second. Run with -benchmem to see the scheduler's
// allocation behavior (the event queue recycles its storage, so allocs/op
// stays flat as simulated time grows).
func BenchmarkSimulatorThroughput(b *testing.B) {
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

// TestSimulatorAllocBudget is the allocation-budget gate on the hot
// path: one op of the throughput workload (world construction plus one
// simulated second, ~18k scheduler events and ~1.9k frame exchanges)
// must stay within budget. The pooled simulator sits around 245
// allocs/op — almost all world construction — against a pre-pooling
// baseline of ~20k; the budget of 2,000 leaves headroom for legitimate
// construction growth while still catching any per-event or
// per-exchange allocation sneaking back into the steady state.
func TestSimulatorAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const budget = 2000
	seed := int64(0)
	avg := testing.AllocsPerRun(5, func() {
		seed++
		w, err := scenario.BuildPairs(scenario.PairsConfig{
			Config:    scenario.Config{Seed: seed, UseRTSCTS: true},
			N:         2,
			Transport: scenario.UDP,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(sim.Second)
	})
	if avg > budget {
		t.Errorf("simulator workload allocates %.0f allocs/op, budget %d", avg, budget)
	}
	t.Logf("allocs/op = %.0f (budget %d)", avg, budget)
}

// untracedAllocsBaseline is the allocs/op of BenchmarkSimulatorThroughput
// with tracing disabled, measured without the race detector on go1.24.
const untracedAllocsBaseline = 252

// TestDisabledTracingAddsNoAllocs is the zero-cost-when-disabled guard:
// the untraced simulator workload must not allocate more per op than
// untracedAllocsBaseline (+1% slack for Go-version noise). The MAC probe
// sites and the medium tap hook are on this path, so any probe-related
// allocation that leaks into the disabled case shows up here. The
// baseline is a non-race measurement, and race instrumentation allocates
// on its own, so the guard runs only in non-race builds (CI runs it in a
// step of its own).
func TestDisabledTracingAddsNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the baseline is a non-race measurement")
	}
	got := testing.Benchmark(BenchmarkSimulatorThroughput).AllocsPerOp()
	limit := int64(untracedAllocsBaseline + untracedAllocsBaseline/100)
	if got > limit {
		t.Errorf("untraced simulator allocs/op = %d, baseline %d (+1%% = %d): "+
			"disabled tracing is no longer free", got, untracedAllocsBaseline, limit)
	}
	t.Logf("untraced allocs/op = %d (baseline %d)", got, untracedAllocsBaseline)
}

// TestDenseWorldAllocBudget is the allocation-budget gate on the
// multi-BSS fan-out path: a 4×4 grid of BSSs (336 radios, 320 flows,
// the grid scenario.TestDenseWorldIdentityGolden pins) run for one simulated
// second must stay within budget. Neighbor tables are built once per
// topology generation and arrivals ride the pooled arena, so
// steady-state delivery allocates nothing; the budget covers world
// construction (which scales with radio and flow count) plus headroom,
// and catches any per-delivery allocation sneaking into the scoped
// path.
func TestDenseWorldAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const budget = 40000
	prop := phys.GRCPropagation()
	seed := int64(0)
	avg := testing.AllocsPerRun(5, func() {
		seed++
		w, err := scenario.BuildCells(scenario.CellsConfig{
			Config: scenario.Config{Seed: seed, Propagation: &prop},
			Topology: scenario.TopologySpec{
				NumCells:        16,
				GridCols:        4,
				ChannelPlan:     []int{1, 6, 11},
				DefaultStations: 20,
				DefaultUplink:   5,
			},
			CBRRateBps: 2e5,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(sim.Second)
	})
	if avg > budget {
		t.Errorf("dense world allocates %.0f allocs/op, budget %d", avg, budget)
	}
	t.Logf("allocs/op = %.0f (budget %d)", avg, budget)
}

// BenchmarkScale measures how cost grows with the number of contending
// pairs.
func BenchmarkScale(b *testing.B) {
	for _, pairs := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := scenario.BuildPairs(scenario.PairsConfig{
					Config:    scenario.Config{Seed: int64(i + 1), UseRTSCTS: true},
					N:         pairs,
					Transport: scenario.UDP,
				})
				if err != nil {
					b.Fatal(err)
				}
				w.Run(sim.Second)
			}
		})
	}
}
