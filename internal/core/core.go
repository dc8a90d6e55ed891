// Package core is the high-level facade of the library: one call builds a
// hotspot scenario from the paper's vocabulary (pairs or a shared AP, a
// misbehavior, a greedy percentage, optional GRC protection), runs it over
// several seeds, and reports per-flow goodput plus detection statistics.
//
// Lower-level control — custom topologies, mixed policies, wired backhaul —
// is available through package scenario, and the individual mechanisms
// through packages mac, medium, greedy, and detect.
package core

import (
	"context"
	"fmt"
	"sort"

	"greedy80211/internal/detect"
	"greedy80211/internal/greedy"
	"greedy80211/internal/metrics"
	"greedy80211/internal/phys"
	"greedy80211/internal/runner"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/trace"
)

// Version identifies the library release.
const Version = "1.0.0"

// Misbehavior selects the greedy receiver behavior under study.
type Misbehavior int

const (
	// MisbehaviorNone runs a fully compliant network (baselines).
	MisbehaviorNone Misbehavior = iota + 1
	// MisbehaviorNAVInflation is misbehavior 1: inflated duration fields.
	MisbehaviorNAVInflation
	// MisbehaviorACKSpoofing is misbehavior 2: MAC ACKs forged on behalf
	// of competing receivers.
	MisbehaviorACKSpoofing
	// MisbehaviorFakeACKs is misbehavior 3: ACKs for corrupted frames.
	MisbehaviorFakeACKs
)

// String implements fmt.Stringer.
func (m Misbehavior) String() string {
	switch m {
	case MisbehaviorNone:
		return "none"
	case MisbehaviorNAVInflation:
		return "nav-inflation"
	case MisbehaviorACKSpoofing:
		return "ack-spoofing"
	case MisbehaviorFakeACKs:
		return "fake-acks"
	default:
		return fmt.Sprintf("Misbehavior(%d)", int(m))
	}
}

// Config describes a complete experiment in the paper's vocabulary.
type Config struct {
	// Seed drives all randomness; runs use Seed, Seed+1, …
	Seed int64
	// Runs is how many seeded repetitions feed each median (default 5,
	// the paper's methodology).
	Runs int
	// Duration is the simulated time per run (default 5 s).
	Duration sim.Time

	// Band selects 802.11b (default) or 802.11a.
	Band phys.Band
	// Transport selects UDP (default) or TCP.
	Transport scenario.Transport
	// Pairs is the number of sender→receiver flows (default 2).
	Pairs int
	// SharedAP puts all flows behind one access point instead of one
	// sender per flow.
	SharedAP bool
	// HiddenTerminals uses the hidden-sender topology (UDP, no RTS/CTS) —
	// the collision-loss setting of the fake-ACK study.
	HiddenTerminals bool
	// DisableRTSCTS turns the RTS/CTS exchange off.
	DisableRTSCTS bool

	// Misbehavior and the number of GreedyReceivers (the last k receivers
	// misbehave). GreedyPercent throttles how often (default 100).
	Misbehavior     Misbehavior
	GreedyReceivers int
	GreedyPercent   float64
	// NAVInflation is the duration added by misbehavior 1 (default 10 ms);
	// NAVFrames the frame set it applies to (default CTS+ACK).
	NAVInflation sim.Time
	NAVFrames    greedy.FrameSet

	// BER injects Table III channel errors; DataFER injects a fixed data
	// frame error rate instead.
	BER     float64
	DataFER float64

	// EnableGRC installs the countermeasure at every station.
	EnableGRC bool

	// FlightRecorder, when non-nil, attaches a full flight recorder (tap +
	// MAC probe) to every run, one recording per seed. Each run gets its
	// own recorder, so runs stay parallel and the collector's canonical
	// ordering keeps exports deterministic.
	FlightRecorder *trace.Collector
	// Pools, when non-nil, folds every run's end-of-run pool occupancy
	// (frame/packet arenas, arrival arena, event slab) into the report.
	// Pool telemetry is observability-only: it never feeds Result, whose
	// numbers stay identical with pooling on or off.
	Pools *scenario.PoolReport
}

// FlowResult is one flow's outcome.
type FlowResult struct {
	ID          int
	Greedy      bool
	GoodputMbps float64
}

// GoodputSummary averages the per-class flow medians.
type GoodputSummary struct {
	// GreedyMbps and NormalMbps average the greedy and normal flows'
	// median goodputs (zero when the class is empty).
	GreedyMbps float64
	NormalMbps float64
}

// GRCSummary reports the countermeasure's median interventions per run
// across protected stations (all zero when GRC is disabled).
type GRCSummary struct {
	NAVCorrections float64
	SpoofsIgnored  float64
}

// Result aggregates an experiment's medians across runs: per-flow
// goodput, class summaries, GRC interventions, and the always-on
// per-station telemetry snapshot.
type Result struct {
	Flows   []FlowResult
	Goodput GoodputSummary
	// Metrics is the per-station MAC/channel telemetry (average CW,
	// airtime shares, NAV-blocked time, …), medianed across runs and
	// merged deterministically by station ID. Always populated.
	Metrics *metrics.Snapshot
	GRC     GRCSummary
}

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Duration == 0 {
		c.Duration = 5 * sim.Second
	}
	if c.Band == 0 {
		c.Band = phys.Band80211B
	}
	if c.Transport == 0 {
		c.Transport = scenario.UDP
	}
	if c.Pairs == 0 {
		c.Pairs = 2
	}
	if c.Misbehavior == 0 {
		c.Misbehavior = MisbehaviorNone
	}
	if c.GreedyPercent == 0 {
		c.GreedyPercent = 100
	}
	if c.NAVInflation == 0 {
		c.NAVInflation = 10 * sim.Millisecond
	}
	if c.NAVFrames == (greedy.FrameSet{}) {
		c.NAVFrames = greedy.CTSAndACK
	}
	if c.Misbehavior != MisbehaviorNone && c.GreedyReceivers == 0 {
		c.GreedyReceivers = 1
	}
	return c
}

// Validate reports whether the configuration is runnable. Defaults are
// applied before checking, so a zero value in a defaulted field (Pairs,
// Runs, …) never fails; Run and RunContext call it, and callers may use
// it to vet a configuration without running anything.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Pairs < 1 {
		return fmt.Errorf("core: need at least one pair, got %d", c.Pairs)
	}
	if c.GreedyReceivers > c.Pairs {
		return fmt.Errorf("core: %d greedy receivers exceed %d pairs", c.GreedyReceivers, c.Pairs)
	}
	if c.GreedyPercent < 0 || c.GreedyPercent > 100 {
		return fmt.Errorf("core: greedy percent %v out of [0,100]", c.GreedyPercent)
	}
	if c.HiddenTerminals && (c.Pairs != 2 || c.SharedAP) {
		return fmt.Errorf("core: hidden-terminal topology requires exactly 2 pairs and no shared AP")
	}
	if c.Misbehavior == MisbehaviorFakeACKs && c.BER == 0 && c.DataFER == 0 && !c.HiddenTerminals {
		return fmt.Errorf("core: fake ACKs need a loss source (BER, DataFER, or HiddenTerminals)")
	}
	return nil
}

// stationSpecs builds one run's receiver and sender specs: GRC at every
// station when enabled, and the misbehavior on the last GreedyReceivers
// receivers.
func (c Config) stationSpecs(grcCfg *detect.Config) (recv, send []scenario.StationSpec) {
	var grc *detect.Config
	if c.EnableGRC {
		grc = grcCfg
	}
	nNormal := c.Pairs - c.GreedyReceivers
	var policy scenario.PolicySpec
	switch c.Misbehavior {
	case MisbehaviorNAVInflation:
		policy = scenario.PolicySpec{Name: scenario.PolicyNAVInflation, GreedyPercent: &c.GreedyPercent,
			NAVInflation: c.NAVInflation, Frames: c.NAVFrames.String()}
	case MisbehaviorACKSpoofing:
		// Target every normal receiver; builders add them first.
		policy = scenario.PolicySpec{Name: scenario.PolicyACKSpoofing, GreedyPercent: &c.GreedyPercent}
		for j := 0; j < nNormal; j++ {
			policy.Victims = append(policy.Victims, scenario.ReceiverName(j))
		}
	case MisbehaviorFakeACKs:
		policy = scenario.PolicySpec{Name: scenario.PolicyFakeACKs, GreedyPercent: &c.GreedyPercent}
	}
	recv = make([]scenario.StationSpec, c.Pairs)
	send = make([]scenario.StationSpec, c.Pairs)
	for i := range recv {
		recv[i].GRC = grc
		send[i].GRC = grc
		if i >= nNormal {
			recv[i].Policy = policy
		}
	}
	return recv, send
}

func (c Config) buildWorld(seed int64, grcCfg *detect.Config) (*scenario.World, error) {
	base := scenario.Config{
		Seed:         seed,
		Band:         c.Band,
		UseRTSCTS:    !c.DisableRTSCTS,
		ForceCapture: c.Misbehavior == MisbehaviorACKSpoofing,
	}
	switch {
	case c.DataFER > 0:
		base.Error = phys.DataFERSpec(c.DataFER)
	case c.BER > 0:
		base.Error = phys.BERSpec(c.BER)
	}
	recv, send := c.stationSpecs(grcCfg)
	switch {
	case c.HiddenTerminals:
		return scenario.BuildHiddenPairs(scenario.HiddenPairsConfig{Config: base, ReceiverSpecs: recv})
	case c.SharedAP:
		return scenario.BuildSharedAP(scenario.SharedAPConfig{
			Config: base, N: c.Pairs, Transport: c.Transport, ReceiverSpecs: recv,
		})
	default:
		return scenario.BuildPairs(scenario.PairsConfig{
			Config: base, N: c.Pairs, Transport: c.Transport,
			ReceiverSpecs: recv, SenderSpecs: send,
		})
	}
}

// Run executes the experiment and reports per-flow median goodput plus
// the telemetry snapshot. It is RunContext without cancellation.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the experiment with cooperative cancellation: ctx
// is checked between seeded runs (a simulated world, once started, runs
// to completion), so cancelling stops the sweep at the next run boundary
// and returns ctx.Err().
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	grcCfg := detect.DefaultConfig()
	type runResult struct {
		flows         map[int]float64
		snap          *metrics.Snapshot
		nav, spoofIgn float64
	}
	oneRun := func(r int) (runResult, error) {
		seed := cfg.Seed + int64(r)
		w, err := cfg.buildWorld(seed, &grcCfg)
		if err != nil {
			return runResult{}, fmt.Errorf("core: building run %d: %w", r, err)
		}
		if cfg.FlightRecorder != nil {
			rec := cfg.FlightRecorder.Start(seed)
			w.AttachTrace(rec, rec)
		}
		w.Run(cfg.Duration)
		if cfg.Pools != nil {
			cfg.Pools.Add(w.PoolStats())
		}
		res := runResult{flows: make(map[int]float64), snap: w.MetricsSnapshot()}
		for _, fl := range w.Flows() {
			res.flows[fl.ID] = fl.GoodputMbps(cfg.Duration)
		}
		if cfg.EnableGRC {
			var nav, ign int64
			for i := 0; i < cfg.Pairs; i++ {
				for _, name := range []string{scenario.SenderName(i), scenario.ReceiverName(i)} {
					if st, ok := w.Station(name); ok && st.GRC != nil {
						nav += st.GRC.Stats().NAVClamped
						ign += st.GRC.Stats().SpoofIgnored
					}
				}
			}
			res.nav = float64(nav)
			res.spoofIgn = float64(ign)
		}
		return res, nil
	}
	// Runs are independent deterministic worlds, so they execute on the
	// runner pool.
	runs, err := runner.MapContext(ctx, cfg.Runs, oneRun)
	if err != nil {
		return Result{}, err
	}
	perFlow := make(map[int][]float64)
	snaps := make([]*metrics.Snapshot, 0, len(runs))
	var navCorr, spoofIgn []float64
	for _, rr := range runs {
		for id, v := range rr.flows {
			perFlow[id] = append(perFlow[id], v)
		}
		snaps = append(snaps, rr.snap)
		if cfg.EnableGRC {
			navCorr = append(navCorr, rr.nav)
			spoofIgn = append(spoofIgn, rr.spoofIgn)
		}
	}
	res := Result{
		Metrics: metrics.MedianSnapshots(snaps),
		GRC: GRCSummary{
			NAVCorrections: stats.Median(navCorr),
			SpoofsIgnored:  stats.Median(spoofIgn),
		},
	}
	ids := make([]int, 0, len(perFlow))
	for id := range perFlow {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var gSum, nSum float64
	var gN, nN int
	for _, id := range ids {
		med := stats.Median(perFlow[id])
		isGreedy := cfg.Misbehavior != MisbehaviorNone && id > cfg.Pairs-cfg.GreedyReceivers
		res.Flows = append(res.Flows, FlowResult{ID: id, Greedy: isGreedy, GoodputMbps: med})
		if isGreedy {
			gSum += med
			gN++
		} else {
			nSum += med
			nN++
		}
	}
	if gN > 0 {
		res.Goodput.GreedyMbps = gSum / float64(gN)
	}
	if nN > 0 {
		res.Goodput.NormalMbps = nSum / float64(nN)
	}
	return res, nil
}
