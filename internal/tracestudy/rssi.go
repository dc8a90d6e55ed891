package tracestudy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// RSSIStudyConfig parameterizes the Fig 21/22 reproduction: nodes spread
// over an office floor, per-link RSSI sampling, median tracking.
type RSSIStudyConfig struct {
	// Nodes is the testbed size (the paper used 16).
	Nodes int
	// FloorW and FloorH are the floor dimensions in meters.
	FloorW, FloorH float64
	// SamplesPerLink is how many RSSI readings each directed link gets.
	SamplesPerLink int
	// Model is the per-packet RSSI process.
	Model phys.RSSIModel
	// PathLossExponent shapes indoor attenuation (≈3.5 for offices).
	PathLossExponent float64
	// Seed drives placement and sampling.
	Seed int64
}

// DefaultRSSIStudyConfig mirrors the paper's 16-node office floor.
func DefaultRSSIStudyConfig(seed int64) RSSIStudyConfig {
	return RSSIStudyConfig{
		Nodes:            16,
		FloorW:           50,
		FloorH:           30,
		SamplesPerLink:   200,
		Model:            phys.DefaultRSSIModel(),
		PathLossExponent: 3.5,
		Seed:             seed,
	}
}

func (c RSSIStudyConfig) validate() error {
	if c.Nodes < 3 {
		return fmt.Errorf("tracestudy: need ≥3 nodes, got %d", c.Nodes)
	}
	if c.SamplesPerLink < 3 {
		return fmt.Errorf("tracestudy: need ≥3 samples per link, got %d", c.SamplesPerLink)
	}
	if c.FloorW <= 0 || c.FloorH <= 0 {
		return fmt.Errorf("tracestudy: invalid floor %v × %v", c.FloorW, c.FloorH)
	}
	return nil
}

// link holds the ground truth of one directed link in the study.
type link struct {
	meanDBm   float64
	medianDBm float64
}

// rssiWorld is the generated floor: node positions and per-link state.
type rssiWorld struct {
	cfg   RSSIStudyConfig
	rng   *rand.Rand
	pos   []phys.Position
	links map[[2]int]*link // [sender, receiver]
}

func buildRSSIWorld(cfg RSSIStudyConfig) (*rssiWorld, []float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	w := &rssiWorld{
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed),
		links: make(map[[2]int]*link),
	}
	for i := 0; i < cfg.Nodes; i++ {
		w.pos = append(w.pos, phys.Position{
			X: w.rng.Float64() * cfg.FloorW,
			Y: w.rng.Float64() * cfg.FloorH,
		})
	}
	prop := phys.Propagation{
		CommRange:         1e6, // everyone hears everyone on one floor
		CSRange:           1e6,
		TxPowerDBm:        18,
		PathLossExponent:  cfg.PathLossExponent,
		ReferenceDistance: 1,
	}
	var deviations []float64
	for s := 0; s < cfg.Nodes; s++ {
		for r := 0; r < cfg.Nodes; r++ {
			if s == r {
				continue
			}
			mean := prop.RxPowerDBm(w.pos[s].DistanceTo(w.pos[r]))
			samples := make([]float64, cfg.SamplesPerLink)
			for k := range samples {
				samples[k] = cfg.Model.Sample(w.rng, mean)
			}
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)
			median := sorted[len(sorted)/2]
			w.links[[2]int{s, r}] = &link{meanDBm: mean, medianDBm: median}
			for _, v := range samples {
				deviations = append(deviations, math.Abs(v-median))
			}
		}
	}
	return w, deviations, nil
}

// RSSIStudyResult carries every |RSSI − median| deviation observed.
type RSSIStudyResult struct {
	Deviations []float64
}

// RunRSSIStudy generates the floor and samples every link (Fig 21).
func RunRSSIStudy(cfg RSSIStudyConfig) (RSSIStudyResult, error) {
	_, devs, err := buildRSSIWorld(cfg)
	if err != nil {
		return RSSIStudyResult{}, err
	}
	return RSSIStudyResult{Deviations: devs}, nil
}

// CDF reports the fraction of deviations ≤ x for each x.
func (r RSSIStudyResult) CDF(xs []float64) []float64 {
	sorted := append([]float64(nil), r.Deviations...)
	sort.Float64s(sorted)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))) /
			float64(len(sorted))
	}
	return out
}

// FractionWithin reports the fraction of deviations ≤ x (the paper's
// headline: ≈95% within 1 dB).
func (r RSSIStudyResult) FractionWithin(x float64) float64 {
	if len(r.Deviations) == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Deviations {
		if d <= x {
			n++
		}
	}
	return float64(n) / float64(len(r.Deviations))
}

// TradeoffPoint is one threshold's detection quality (Fig 22).
type TradeoffPoint struct {
	ThresholdDB   float64
	FalsePositive float64 // legitimate ACK flagged as spoofed
	FalseNegative float64 // spoofed ACK accepted as legitimate
}

// RunDetectionTradeoff sweeps the RSSI threshold: a false positive is a
// true receiver's sample deviating beyond the threshold from its own link
// median; a false negative is a spoofer's sample (drawn on the
// spoofer→sender link) falling within the threshold of the impersonated
// receiver's median. Spoofer/victim pairs range over all node triples.
func RunDetectionTradeoff(cfg RSSIStudyConfig, thresholds []float64) ([]TradeoffPoint, error) {
	w, devs, err := buildRSSIWorld(cfg)
	if err != nil {
		return nil, err
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("tracestudy: no thresholds")
	}
	// Spoof deviations: for each sender S, victim N, spoofer G (all
	// distinct), sample G→S readings against N→S's median.
	var spoofDevs []float64
	const spoofSamples = 8
	for s := 0; s < cfg.Nodes; s++ {
		for n := 0; n < cfg.Nodes; n++ {
			if n == s {
				continue
			}
			victim := w.links[[2]int{n, s}]
			for g := 0; g < cfg.Nodes; g++ {
				if g == s || g == n {
					continue
				}
				spoofer := w.links[[2]int{g, s}]
				for k := 0; k < spoofSamples; k++ {
					sample := cfg.Model.Sample(w.rng, spoofer.meanDBm)
					spoofDevs = append(spoofDevs, math.Abs(sample-victim.medianDBm))
				}
			}
		}
	}
	out := make([]TradeoffPoint, 0, len(thresholds))
	for _, th := range thresholds {
		fp := 0
		for _, d := range devs {
			if d > th {
				fp++
			}
		}
		fn := 0
		for _, d := range spoofDevs {
			if d <= th {
				fn++
			}
		}
		out = append(out, TradeoffPoint{
			ThresholdDB:   th,
			FalsePositive: float64(fp) / float64(len(devs)),
			FalseNegative: float64(fn) / float64(len(spoofDevs)),
		})
	}
	return out, nil
}
