package experiments

import (
	"fmt"

	"greedy80211/internal/detect"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/stats"
)

// Ablations of the design choices DESIGN.md calls out: the capture-effect
// assumption behind the spoofing evaluation, GRC's RSSI threshold, and
// the basic (control-frame) rate.

func registerAblation() {
	register("abl1", "Ablation: capture-effect assumption in the ACK-spoofing evaluation", "ablation (beyond paper)", runAbl1)
	register("abl2", "Ablation: GRC RSSI threshold in the live spoofing scenario", "ablation (beyond paper)", runAbl2)
	register("abl3", "Ablation: control-frame (basic) rate 1 vs 2 Mbps", "ablation (beyond paper)", runAbl3)
}

// runAbl1 re-runs the Fig 11 operating point under three capture regimes.
// The paper assumes capture always resolves the two-simultaneous-ACKs
// case (scenario.CaptureStrongest); realistic 10 dB capture lets the spoofed ACK
// *collide* with the genuine one when their powers are close — adding a
// jamming side effect the paper deliberately excluded.
func runAbl1(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "abl1", Title: "Spoofing at BER 2e-4 under different capture regimes"}
	t := stats.Table{
		Title: "ForceCapture is the paper's assumption; 10 dB is ns-2's realistic threshold " +
			"(close ACKs collide: spoofing gains a jamming component); none = every overlap collides.",
		Header: []string{"capture", "noGR_R1", "noGR_R2", "GR_NR", "GR_GR"},
	}
	type regime struct {
		name    string
		capture scenario.Capture
	}
	regimes := []regime{
		{"force (paper)", scenario.CaptureStrongest},
		{"10 dB threshold", scenario.CaptureThreshold},
		{"disabled", scenario.CaptureOff},
	}
	if cfg.Quick {
		regimes = regimes[:2]
	}
	rows, err := sweep(regimes, func(reg regime) (baseAttPoint, error) {
		build := func(seed int64, spoof bool) (*scenario.World, error) {
			var spoofer scenario.PolicySpec
			if spoof {
				spoofer = spoofForR1
			}
			return scenario.BuildPairs(scenario.PairsConfig{
				Config: scenario.Config{
					Seed: seed, UseRTSCTS: true, Error: phys.BERSpec(2e-4),
					Capture: reg.capture,
				},
				N:             2,
				Transport:     scenario.TCP,
				ReceiverSpecs: lastGreedy(2, 1, spoofer),
			})
		}
		base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return build(seed, false)
		}, nil)
		if err != nil {
			return baseAttPoint{}, err
		}
		att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return build(seed, true)
		}, nil)
		return baseAttPoint{base, att}, err
	})
	if err != nil {
		return nil, err
	}
	for i, reg := range regimes {
		t.AddRow(reg.name, rows[i].base[1], rows[i].base[2], rows[i].att[1], rows[i].att[2])
	}
	res.AddTable(t)
	return res, nil
}

// runAbl2 sweeps GRC's RSSI threshold in the live Fig 24 scenario at
// BER 4.4e-4, reporting the victim's recovered goodput and GRC's
// intervention counters — the live-system counterpart of Fig 22's offline
// FP/FN curves.
func runAbl2(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "abl2", Title: "GRC RSSI threshold sweep against live spoofing (BER 4.4e-4)"}
	t := stats.Table{
		Title: "Small thresholds flag more (risking false suspicion); large thresholds miss " +
			"spoofs. Recovery is stable because only capture-safe rejections act.",
		Header: []string{"threshold_db", "victim_mbps", "attacker_mbps",
			"spoofs_ignored", "acks_checked"},
	}
	thresholds := pick(cfg, []float64{0.25, 0.5, 1, 2, 4})
	type thPoint struct {
		flows   map[int]float64
		metrics map[string]float64
	}
	pts, err := sweep(thresholds, func(th float64) (thPoint, error) {
		grcCfg := detect.DefaultConfig()
		grcCfg.RSSIThresholdDB = th
		flows, metrics, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return grcSpoofWorldWithConfig(seed, 4.4e-4, grcCfg)
		}, func(w *scenario.World, m map[string]float64) {
			s1, _ := w.Station("S1")
			m["ignored"] = float64(s1.GRC.Stats().SpoofIgnored)
			m["checked"] = float64(s1.GRC.Stats().ACKsChecked)
		})
		return thPoint{flows, metrics}, err
	})
	if err != nil {
		return nil, err
	}
	for i, th := range thresholds {
		p := pts[i]
		t.AddRow(th, p.flows[1], p.flows[2], p.metrics["ignored"], p.metrics["checked"])
	}
	res.AddTable(t)
	return res, nil
}

// runAbl3 compares 1 Mbps vs 2 Mbps control frames: baseline capacity
// rises with the faster basic rate, and the NAV-inflation attack remains
// exactly as devastating (it manipulates a field, not airtime).
func runAbl3(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "abl3", Title: "Control-frame rate ablation (802.11b, UDP)"}
	t := stats.Table{
		Title:  "Faster control frames raise capacity; the NAV attack is rate-independent.",
		Header: []string{"basic_rate", "case", "R1_mbps", "R2_mbps"},
	}
	type rowCase struct {
		rate   int64
		name   string
		greedy bool
	}
	var cases []rowCase
	for _, rate := range []int64{phys.Rate1Mbps, phys.Rate2Mbps} {
		for _, tc := range []struct {
			name   string
			greedy bool
		}{{"no GR", false}, {"R2 inflates CTS 10ms", true}} {
			cases = append(cases, rowCase{rate, tc.name, tc.greedy})
		}
	}
	rows, err := sweep(cases, func(c rowCase) (map[int]float64, error) {
		var nav scenario.PolicySpec
		if c.greedy {
			nav = scenario.PolicySpec{Name: scenario.PolicyNAVInflation, Frames: "cts"}
		}
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return scenario.BuildPairs(scenario.PairsConfig{
				Config: scenario.Config{
					Seed: seed, UseRTSCTS: true, ControlRateBps: c.rate,
				},
				N:             2,
				Transport:     scenario.UDP,
				ReceiverSpecs: lastGreedy(2, 1, nav),
			})
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		t.AddRow(fmt.Sprintf("%d Mbps", c.rate/1_000_000), c.name, rows[i][1], rows[i][2])
	}
	res.AddTable(t)
	return res, nil
}
