package experiments

import (
	"greedy80211/internal/detect"
	"greedy80211/internal/greedy"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/tracestudy"
	"greedy80211/internal/transport"
)

func registerDetection() {
	register("fig21", "CDF of |RSSI − median RSSI| over all links (16-node floor)", "Fig. 21 (§VII)", runFig21)
	register("fig22", "Spoof detection: false positive/negative vs RSSI threshold", "Fig. 22 (§VII)", runFig22)
	register("fig23", "GRC vs inflated CTS NAV across pair separation (UDP and TCP)", "Fig. 23 (§VIII)", runFig23)
	register("fig24", "GRC vs ACK spoofing across BER (TCP)", "Fig. 24 (§VIII)", runFig24)
}

func runFig21(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig21", Title: "CDF of RSSI deviation from the link median"}
	study := tracestudy.DefaultRSSIStudyConfig(cfg.BaseSeed + 21)
	if cfg.Quick {
		study.SamplesPerLink = 50
	}
	r, err := tracestudy.RunRSSIStudy(study)
	if err != nil {
		return nil, err
	}
	xs := []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5}
	cdf := r.CDF(xs)
	s := stats.Series{Name: "CDF"}
	for i, x := range xs {
		s.Add(x, cdf[i])
	}
	res.AddSeries("≈95% of samples fall within 1 dB of the link median.", "deviation_db", s)
	return res, nil
}

func runFig22(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig22", Title: "False positive and false negative vs RSSI threshold"}
	study := tracestudy.DefaultRSSIStudyConfig(cfg.BaseSeed + 22)
	if cfg.Quick {
		study.SamplesPerLink = 50
	}
	thresholds := []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5}
	pts, err := tracestudy.RunDetectionTradeoff(study, thresholds)
	if err != nil {
		return nil, err
	}
	fp := stats.Series{Name: "false positive"}
	fn := stats.Series{Name: "false negative"}
	for _, p := range pts {
		fp.Add(p.ThresholdDB, p.FalsePositive)
		fn.Add(p.ThresholdDB, p.FalseNegative)
	}
	res.AddSeries("1 dB achieves both low FP and low FN.", "rssi_threshold_db", fp, fn)
	return res, nil
}

// grcNAVWorld builds the Fig 23 topology: pair 1 at the origin, pair 2 at
// distance d, 55 m communication / 99 m interference ranges, R2 inflating
// CTS NAV when greedyOn, GRC everywhere when grcOn.
func grcNAVWorld(seed int64, tr scenario.Transport, d float64, greedyOn, grcOn bool) (*scenario.World, error) {
	prop := phys.GRCPropagation()
	w, err := scenario.NewWorld(scenario.Config{
		Seed: seed, UseRTSCTS: true, Propagation: &prop,
	})
	if err != nil {
		return nil, err
	}
	grcCfg := detect.DefaultConfig()
	opts := func(greedy bool) scenario.StationOpts {
		o := scenario.StationOpts{}
		if grcOn {
			o.GRC = &grcCfg
		}
		return o
	}
	r2opts := opts(true)
	if greedyOn {
		r2opts.Policy = greedy.NewNAVInflation(w.Sched.RNG(), greedyFrameSetCTS(), 31*sim.Millisecond, 100)
	}
	// Geometry per Fig 23(a): pair 1 clustered at the origin; the greedy
	// receiver R2 at distance d, with its sender S2 a further 10 m out.
	// This creates the paper's three regimes: d ≤ 45 m, S1/R1 hear S2's
	// RTS and clamp R2's CTS NAV exactly; 45 < d ≤ 55 m, they hear only
	// R2's CTS and must fall back to the 1500-byte MTU bound (R2 keeps a
	// ~46% airtime advantage); d > 55 m, the inflated CTS is inaudible.
	add := func(name string, pos phys.Position, o scenario.StationOpts) error {
		_, err := w.AddStation(name, pos, o)
		return err
	}
	if err := add("R1", phys.Position{X: 2}, opts(false)); err != nil {
		return nil, err
	}
	if err := add("R2", phys.Position{X: d}, r2opts); err != nil {
		return nil, err
	}
	if err := add("S1", phys.Position{}, opts(false)); err != nil {
		return nil, err
	}
	if err := add("S2", phys.Position{X: d + 10}, opts(false)); err != nil {
		return nil, err
	}
	for i, pair := range [][2]string{{"S1", "R1"}, {"S2", "R2"}} {
		switch tr {
		case scenario.TCP:
			_, err = w.AddTCPFlow(i+1, pair[0], pair[1], transport.DefaultTCPConfig(i+1))
		default:
			_, err = w.AddUDPFlow(i+1, pair[0], pair[1], scenario.DefaultCBRRateBps, scenario.DefaultPayloadBytes)
		}
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func greedyFrameSetCTS() greedy.FrameSet { return greedy.CTSOnly }

// protPoint is one sweep point's baseline / attack / GRC-protected runs.
type protPoint struct {
	base, att, prot map[int]float64
}

func runFig23(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig23", Title: "GRC against inflated CTS NAV vs pair separation (comm 55 m, interf 99 m)"}
	dists := pick(cfg, []float64{5, 15, 25, 35, 45, 52, 65, 85, 105, 120})
	transports := []struct {
		caption string
		tr      scenario.Transport
	}{
		{"(b) UDP", scenario.UDP},
		{"(c) TCP", scenario.TCP},
	}
	if cfg.Quick {
		transports = transports[:1]
	}
	for _, tc := range transports {
		noGR := stats.Series{Name: "no GR: R1 (Mbps)"}
		attR1 := stats.Series{Name: "GR no GRC: R1 (Mbps)"}
		attR2 := stats.Series{Name: "GR no GRC: R2 (Mbps)"}
		grcR1 := stats.Series{Name: "GR + GRC: R1 (Mbps)"}
		grcR2 := stats.Series{Name: "GR + GRC: R2 (Mbps)"}
		pts, err := sweep(dists, func(d float64) (protPoint, error) {
			base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return grcNAVWorld(seed, tc.tr, d, false, false)
			}, nil)
			if err != nil {
				return protPoint{}, err
			}
			att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return grcNAVWorld(seed, tc.tr, d, true, false)
			}, nil)
			if err != nil {
				return protPoint{}, err
			}
			prot, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return grcNAVWorld(seed, tc.tr, d, true, true)
			}, nil)
			return protPoint{base, att, prot}, err
		})
		if err != nil {
			return nil, err
		}
		for i, d := range dists {
			p := pts[i]
			noGR.Add(d, p.base[1])
			attR1.Add(d, p.att[1])
			attR2.Add(d, p.att[2])
			grcR1.Add(d, p.prot[1])
			grcR2.Add(d, p.prot[2])
		}
		res.AddSeries(tc.caption+" — GRC restores R1 below 55 m; beyond 55 m the inflated CTS is inaudible anyway.",
			"pair_separation_m", noGR, attR1, attR2, grcR1, grcR2)
	}
	return res, nil
}

// grcSpoofWorld builds the Fig 24 scenario: two TCP pairs with equal BER;
// R2 spoofs for R1 from a position whose signal at S1 is ≥10 dB below
// R1's, so GRC can safely ignore forged ACKs.
func grcSpoofWorld(seed int64, ber float64, greedyOn, grcOn bool) (*scenario.World, error) {
	if !grcOn {
		return grcSpoofWorldAt(seed, ber, greedyOn, nil)
	}
	cfg := detect.DefaultConfig()
	return grcSpoofWorldAt(seed, ber, greedyOn, &cfg)
}

// grcSpoofWorldWithConfig is grcSpoofWorld with the attack on and a
// custom GRC configuration at the victim's sender (the abl2 sweep).
func grcSpoofWorldWithConfig(seed int64, ber float64, grcCfg detect.Config) (*scenario.World, error) {
	return grcSpoofWorldAt(seed, ber, true, &grcCfg)
}

func grcSpoofWorldAt(seed int64, ber float64, greedyOn bool, grcCfg *detect.Config) (*scenario.World, error) {
	w, err := scenario.NewWorld(scenario.Config{
		Seed: seed, UseRTSCTS: true, Error: phys.BERSpec(ber), ForceCapture: true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.AddStation("R1", phys.Position{X: 5}, scenario.StationOpts{}); err != nil {
		return nil, err
	}
	r2opts := scenario.StationOpts{}
	if greedyOn {
		r1, _ := w.Station("R1")
		r2opts.Policy = greedy.NewACKSpoofer(w.Sched.RNG(), 100, r1.ID)
	}
	if _, err := w.AddStation("R2", phys.Position{X: 5, Y: 30}, r2opts); err != nil {
		return nil, err
	}
	s1opts := scenario.StationOpts{}
	if grcCfg != nil {
		s1opts.GRC = grcCfg
	}
	if _, err := w.AddStation("S1", phys.Position{}, s1opts); err != nil {
		return nil, err
	}
	if _, err := w.AddStation("S2", phys.Position{Y: 30}, scenario.StationOpts{}); err != nil {
		return nil, err
	}
	if _, err := w.AddTCPFlow(1, "S1", "R1", transport.DefaultTCPConfig(1)); err != nil {
		return nil, err
	}
	if _, err := w.AddTCPFlow(2, "S2", "R2", transport.DefaultTCPConfig(2)); err != nil {
		return nil, err
	}
	return w, nil
}

func runFig24(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig24", Title: "GRC detects and recovers from ACK spoofing vs BER"}
	bers := pick(cfg, []float64{0, 1e-5, 2e-4, 4.4e-4, 8e-4, 1.4e-3})
	noGR1 := stats.Series{Name: "no GR: R1 (Mbps)"}
	noGR2 := stats.Series{Name: "no GR: R2 (Mbps)"}
	attR1 := stats.Series{Name: "GR no GRC: R1 (Mbps)"}
	attR2 := stats.Series{Name: "GR no GRC: R2 (Mbps)"}
	grcR1 := stats.Series{Name: "GR + GRC: R1 (Mbps)"}
	grcR2 := stats.Series{Name: "GR + GRC: R2 (Mbps)"}
	pts, err := sweep(bers, func(ber float64) (protPoint, error) {
		base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return grcSpoofWorld(seed, ber, false, false)
		}, nil)
		if err != nil {
			return protPoint{}, err
		}
		att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return grcSpoofWorld(seed, ber, true, false)
		}, nil)
		if err != nil {
			return protPoint{}, err
		}
		prot, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return grcSpoofWorld(seed, ber, true, true)
		}, nil)
		return protPoint{base, att, prot}, err
	})
	if err != nil {
		return nil, err
	}
	for i, ber := range bers {
		p := pts[i]
		x := ber * 1e4
		noGR1.Add(x, p.base[1])
		noGR2.Add(x, p.base[2])
		attR1.Add(x, p.att[1])
		attR2.Add(x, p.att[2])
		grcR1.Add(x, p.prot[1])
		grcR2.Add(x, p.prot[2])
	}
	res.AddSeries("With GRC both flows track the no-attack goodput curves.",
		"ber_1e-4", noGR1, noGR2, attR1, attR2, grcR1, grcR2)
	return res, nil
}
