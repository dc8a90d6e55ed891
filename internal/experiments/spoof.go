package experiments

import (
	"fmt"

	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/transport"
	"greedy80211/internal/wireline"
)

func registerSpoof() {
	register("fig11", "Spoofed-ACK TCP goodput vs BER (802.11b and 802.11a)", "Fig. 11 (§V-B)", runFig11)
	register("fig12", "Spoofed-ACK TCP goodput vs greedy percentage and loss (802.11b)", "Fig. 12 (§V-B)", runFig12)
	register("fig13", "Spoofing under 0/1/2 greedy receivers vs GP (TCP, BER 2e-4)", "Fig. 13 (§V-B)", runFig13)
	register("fig14", "One greedy receiver vs N normal pairs: shared AP and per-flow APs", "Fig. 14 (§V-B)", runFig14)
	register("fig15", "Remote TCP senders: goodput vs wireline latency (BER 2e-5)", "Fig. 15 (§V-B)", runFig15)
	register("fig16", "Remote TCP senders: greedy percentage × wireline latency", "Fig. 16 (§V-B)", runFig16)
	register("fig17", "Spoofed-ACK UDP goodput vs loss (1 AP, 2 receivers)", "Fig. 17 (§V-B)", runFig17)
}

// spoofForR1 is misbehavior 2 on behalf of R1 alone.
var spoofForR1 = scenario.PolicySpec{Name: scenario.PolicyACKSpoofing,
	Victims: []string{scenario.ReceiverName(0)}}

// spoofPairs builds 2 TCP pairs where the last nGreedy receivers spoof
// ACKs on behalf of the normal receivers, under channel BER.
func spoofPairs(seed int64, band phys.Band, ber, gp float64, nGreedy int) (*scenario.World, error) {
	if gp == 0 {
		nGreedy = 0
	}
	specs := lastGreedy(2, nGreedy, scenario.PolicySpec{Name: scenario.PolicyACKSpoofing, GreedyPercent: &gp})
	// R2 spoofs on behalf of R1. When both are greedy, R1 names no victim
	// and so spoofs for every receiver: R2 does not exist yet when R1 is
	// built.
	if nGreedy > 0 {
		specs[1].Policy.Victims = []string{scenario.ReceiverName(0)}
	}
	return scenario.BuildPairs(scenario.PairsConfig{
		Config: scenario.Config{
			Seed: seed, Band: band, UseRTSCTS: true,
			Error: phys.BERSpec(ber), Capture: scenario.CaptureStrongest,
		},
		N:             2,
		Transport:     scenario.TCP,
		ReceiverSpecs: specs,
	})
}

func runFig11(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig11", Title: "Spoofed-ACK TCP goodput vs BER"}
	bers := pick(cfg, []float64{0, 1e-5, 1e-4, 2e-4, 3.2e-4, 4.4e-4, 8e-4, 1.4e-3})
	bands := []phys.Band{phys.Band80211B, phys.Band80211A}
	if cfg.Quick {
		bands = bands[:1]
	}
	for _, band := range bands {
		noGR1 := stats.Series{Name: "no GR: R1 (Mbps)"}
		noGR2 := stats.Series{Name: "no GR: R2 (Mbps)"}
		wNR := stats.Series{Name: "w R2 GR: NR (Mbps)"}
		wGR := stats.Series{Name: "w R2 GR: GR (Mbps)"}
		pts, err := sweep(bers, func(ber float64) (baseAttPoint, error) {
			base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return spoofPairs(seed, band, ber, 0, 0)
			}, nil)
			if err != nil {
				return baseAttPoint{}, err
			}
			att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return spoofPairs(seed, band, ber, 100, 1)
			}, nil)
			return baseAttPoint{base, att}, err
		})
		if err != nil {
			return nil, err
		}
		for i, ber := range bers {
			x := ber * 1e4
			noGR1.Add(x, pts[i].base[1])
			noGR2.Add(x, pts[i].base[2])
			wNR.Add(x, pts[i].att[1])
			wGR.Add(x, pts[i].att[2])
		}
		res.AddSeries(fmt.Sprintf("%v; GR spoofs MAC ACKs on behalf of NR.", band),
			"ber_1e-4", noGR1, noGR2, wNR, wGR)
	}
	return res, nil
}

func runFig12(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig12", Title: "Spoofed-ACK TCP goodput vs greedy percentage and loss"}
	gps := pick(cfg, []float64{0, 20, 40, 60, 80, 100})
	for _, ber := range []float64{1e-5, 2e-4, 8e-4} {
		nr := stats.Series{Name: "NS-NR (Mbps)"}
		gr := stats.Series{Name: "GS-GR (Mbps)"}
		pts, err := sweep(gps, func(gp float64) (map[int]float64, error) {
			flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return spoofPairs(seed, phys.Band80211B, ber, gp, 1)
			}, nil)
			return flows, err
		})
		if err != nil {
			return nil, err
		}
		for i, gp := range gps {
			nr.Add(gp, pts[i][1])
			gr.Add(gp, pts[i][2])
		}
		res.AddSeries(fmt.Sprintf("BER %.1e", ber), "greedy_percent", nr, gr)
	}
	return res, nil
}

func runFig13(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig13", Title: "Spoofing with 0/1/2 greedy receivers (TCP, BER 2e-4)"}
	gps := pick(cfg, []float64{25, 50, 75, 100})
	t := stats.Table{
		Title:  "Mutual spoofing disables MAC retransmission for both flows; total goodput drops.",
		Header: []string{"greedy_percent", "greedy_count", "R1_mbps", "R2_mbps", "total_mbps"},
	}
	counts := []int{0, 1, 2}
	if cfg.Quick {
		counts = []int{0, 2}
	}
	type rowCase struct {
		gp float64
		k  int
	}
	var cases []rowCase
	for _, k := range counts {
		for _, gp := range gps {
			if k == 0 && gp != gps[0] {
				continue // baseline does not vary with GP
			}
			useGP := gp
			if k == 0 {
				useGP = 0
			}
			cases = append(cases, rowCase{useGP, k})
		}
	}
	rows, err := sweep(cases, func(rc rowCase) (map[int]float64, error) {
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return spoofPairs(seed, phys.Band80211B, 2e-4, rc.gp, rc.k)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, rc := range cases {
		t.AddRow(rc.gp, rc.k, rows[i][1], rows[i][2], rows[i][1]+rows[i][2])
	}
	res.AddTable(t)
	return res, nil
}

func runFig14(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig14", Title: "One greedy receiver vs N normal pairs (TCP, BER 2e-4)"}
	ns := []int{1, 3, 5, 7}
	if cfg.Quick {
		ns = []int{1, 3}
	}
	shared := stats.Table{
		Title:  "(a) all flows share one AP",
		Header: []string{"normal_receivers", "normal_avg_mbps", "greedy_mbps"},
	}
	separate := stats.Table{
		Title:  "(b) each flow has its own AP",
		Header: []string{"normal_receivers", "normal_avg_mbps", "greedy_mbps"},
	}
	pts, err := sweep(ns, func(n int) (baseAttPoint, error) {
		total := n + 1
		spoofer := lastGreedy(total, 1, scenario.PolicySpec{Name: scenario.PolicyACKSpoofing})
		// (a) shared AP: receiver total-1 spoofs for everyone else.
		sharedFlows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return scenario.BuildSharedAP(scenario.SharedAPConfig{
				Config: scenario.Config{
					Seed: seed, UseRTSCTS: true, Error: phys.BERSpec(2e-4), Capture: scenario.CaptureStrongest,
				},
				N:             total,
				Transport:     scenario.TCP,
				ReceiverSpecs: spoofer,
			})
		}, nil)
		if err != nil {
			return baseAttPoint{}, err
		}

		// (b) separate APs: pairs topology.
		sepFlows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return scenario.BuildPairs(scenario.PairsConfig{
				Config: scenario.Config{
					Seed: seed, UseRTSCTS: true, Error: phys.BERSpec(2e-4), Capture: scenario.CaptureStrongest,
				},
				N:             total,
				Transport:     scenario.TCP,
				ReceiverSpecs: spoofer,
			})
		}, nil)
		return baseAttPoint{base: sharedFlows, att: sepFlows}, err
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		total := n + 1
		var sharedSum, sepSum float64
		for id := 1; id < total; id++ {
			sharedSum += pts[i].base[id]
			sepSum += pts[i].att[id]
		}
		shared.AddRow(n, sharedSum/float64(n), pts[i].base[total])
		separate.AddRow(n, sepSum/float64(n), pts[i].att[total])
	}
	res.AddTable(shared)
	res.AddTable(separate)
	return res, nil
}

// remoteSenders builds the Fig 15 topology: two wired hosts behind one AP,
// two wireless receivers, wireless BER 2e-5; R2 optionally spoofs for R1.
func remoteSenders(seed int64, delay sim.Time, gp float64) (*scenario.World, error) {
	w, err := scenario.NewWorld(scenario.Config{
		Seed: seed, UseRTSCTS: true, Error: phys.BERSpec(2e-5), Capture: scenario.CaptureStrongest,
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.AddStation("R1", phys.Position{X: 5}, scenario.StationSpec{}); err != nil {
		return nil, err
	}
	var r2 scenario.StationSpec
	if gp > 0 {
		r2.Policy = scenario.PolicySpec{Name: scenario.PolicyACKSpoofing, GreedyPercent: &gp, Victims: []string{"R1"}}
	}
	if _, err := w.AddStation("R2", phys.Position{X: 5, Y: 5}, r2); err != nil {
		return nil, err
	}
	if _, err := w.AddStation("AP", phys.Position{}, scenario.StationSpec{}); err != nil {
		return nil, err
	}
	for _, h := range []string{"H1", "H2"} {
		if _, err := w.AddWiredHost(h); err != nil {
			return nil, err
		}
		if err := w.ConnectWired(h, "AP", wireline.Config{Delay: delay, RateBps: 100e6}); err != nil {
			return nil, err
		}
	}
	if _, err := w.AddTCPFlow(1, "H1", "R1", transport.DefaultTCPConfig(1)); err != nil {
		return nil, err
	}
	if _, err := w.AddTCPFlow(2, "H2", "R2", transport.DefaultTCPConfig(2)); err != nil {
		return nil, err
	}
	return w, nil
}

// wanDuration stretches a run to cover at least 60 WAN round trips so the
// goodput measurement reflects steady state rather than slow start.
func wanDuration(cfg RunConfig, oneWay sim.Time) RunConfig {
	if min := 120 * oneWay; cfg.Duration < min {
		cfg.Duration = min
	}
	return cfg
}

func runFig15(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig15", Title: "Remote TCP senders: goodput vs one-way wireline latency"}
	delays := pick(cfg, []float64{2, 10, 50, 100, 200, 400})
	noGR1 := stats.Series{Name: "no GR: R1 (Mbps)"}
	noGR2 := stats.Series{Name: "no GR: R2 (Mbps)"}
	wNR := stats.Series{Name: "w R2 GR: NR (Mbps)"}
	wGR := stats.Series{Name: "w R2 GR: GR (Mbps)"}
	pts, err := sweep(delays, func(ms float64) (baseAttPoint, error) {
		delay := sim.FromSeconds(ms / 1000)
		// Long WAN round trips need longer runs: TCP must leave slow
		// start and reach steady state before the measurement means much.
		wanCfg := wanDuration(cfg, delay)
		base, _, err := RunSeeds(wanCfg, func(seed int64) (*scenario.World, error) {
			return remoteSenders(seed, delay, 0)
		}, nil)
		if err != nil {
			return baseAttPoint{}, err
		}
		att, _, err := RunSeeds(wanCfg, func(seed int64) (*scenario.World, error) {
			return remoteSenders(seed, delay, 100)
		}, nil)
		return baseAttPoint{base, att}, err
	})
	if err != nil {
		return nil, err
	}
	for i, ms := range delays {
		noGR1.Add(ms, pts[i].base[1])
		noGR2.Add(ms, pts[i].base[2])
		wNR.Add(ms, pts[i].att[1])
		wGR.Add(ms, pts[i].att[2])
	}
	res.AddSeries("End-to-end loss recovery grows costlier with wireline latency.",
		"wired_latency_ms", noGR1, noGR2, wNR, wGR)
	return res, nil
}

func runFig16(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig16", Title: "Remote TCP senders: greedy percentage sweep per latency"}
	gps := pick(cfg, []float64{0, 20, 40, 60, 80, 100})
	latencies := []float64{2, 50, 100, 200, 400}
	if cfg.Quick {
		latencies = []float64{2, 200}
	}
	for _, ms := range latencies {
		delay := sim.FromSeconds(ms / 1000)
		wanCfg := wanDuration(cfg, delay)
		nr := stats.Series{Name: "NR (Mbps)"}
		gr := stats.Series{Name: "GR (Mbps)"}
		pts, err := sweep(gps, func(gp float64) (map[int]float64, error) {
			flows, _, err := RunSeeds(wanCfg, func(seed int64) (*scenario.World, error) {
				return remoteSenders(seed, delay, gp)
			}, nil)
			return flows, err
		})
		if err != nil {
			return nil, err
		}
		for i, gp := range gps {
			nr.Add(gp, pts[i][1])
			gr.Add(gp, pts[i][2])
		}
		res.AddSeries(fmt.Sprintf("wireline latency %.0f ms", ms), "greedy_percent", nr, gr)
	}
	return res, nil
}

func runFig17(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig17", Title: "Spoofed-ACK UDP goodput vs loss (1 AP, 2 receivers)"}
	bers := pick(cfg, []float64{0, 1e-5, 2e-4, 4.4e-4, 8e-4})
	build := func(seed int64, ber, gp float64) (*scenario.World, error) {
		var spoof scenario.PolicySpec
		if gp > 0 {
			spoof = spoofForR1
			spoof.GreedyPercent = &gp
		}
		return scenario.BuildSharedAP(scenario.SharedAPConfig{
			Config: scenario.Config{
				Seed: seed, UseRTSCTS: true, Capture: scenario.CaptureStrongest,
				Error: phys.BERSpec(ber),
			},
			N:             2,
			Transport:     scenario.UDP,
			ReceiverSpecs: lastGreedy(2, 1, spoof),
		})
	}
	noGR1 := stats.Series{Name: "no GR: R1 (Mbps)"}
	noGR2 := stats.Series{Name: "no GR: R2 (Mbps)"}
	wNR := stats.Series{Name: "w R2 GR: NR (Mbps)"}
	wGR := stats.Series{Name: "w R2 GR: GR (Mbps)"}
	pts, err := sweep(bers, func(ber float64) (baseAttPoint, error) {
		base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return build(seed, ber, 0)
		}, nil)
		if err != nil {
			return baseAttPoint{}, err
		}
		att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return build(seed, ber, 100)
		}, nil)
		return baseAttPoint{base, att}, err
	})
	if err != nil {
		return nil, err
	}
	for i, ber := range bers {
		x := ber * 1e4
		noGR1.Add(x, pts[i].base[1])
		noGR2.Add(x, pts[i].base[2])
		wNR.Add(x, pts[i].att[1])
		wGR.Add(x, pts[i].att[2])
	}
	res.AddSeries("UDP gains are smaller than TCP's (no congestion-control coupling).",
		"ber_1e-4", noGR1, noGR2, wNR, wGR)
	return res, nil
}
