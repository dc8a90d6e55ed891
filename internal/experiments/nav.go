package experiments

import (
	"fmt"

	"greedy80211/internal/analytic"
	"greedy80211/internal/greedy"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
)

func registerNAV() {
	register("fig1", "UDP goodput of NS-NR and GS-GR vs CTS NAV inflation (802.11b)", "Fig. 1 (§V-A)", runFig1)
	register("fig2", "Average CW of GS and NS vs NAV inflation (802.11b, UDP)", "Fig. 2 (§V-A)", runFig2)
	register("fig3", "RTS sending ratio: Eq 1-2 model vs simulation (802.11b, UDP)", "Fig. 3 (§V-A)", runFig3)
	register("fig4", "TCP goodput vs NAV inflation on CTS / RTS+CTS / ACK / all frames (802.11b)", "Fig. 4 (§V-A)", runFig4)
	register("fig5", "TCP goodput vs NAV inflation (802.11a)", "Fig. 5 (§V-A)", runFig5)
	register("fig6", "8 TCP flows, one greedy receiver inflating CTS NAV (802.11b)", "Fig. 6 (§V-A)", runFig6)
	register("fig7", "TCP goodput vs greedy percentage at NAV +5/10/31 ms (802.11b)", "Fig. 7 (§V-A)", runFig7)
	register("fig8", "Goodput under 0/1/2 greedy receivers at NAV +5/10/31 ms (802.11b, TCP)", "Fig. 8 (§V-A)", runFig8)
	register("fig9", "Per-receiver goodput vs number of greedy receivers, 8 TCP flows, NAV +31 ms", "Fig. 9 (§V-A)", runFig9)
	register("fig10", "One sender, multiple receivers: TCP (2 and 8 rx) and UDP (2 rx)", "Fig. 10 (§V-A)", runFig10)
	register("tab2", "Average TCP congestion window, 1-sender vs 2-sender", "Table II (§V-A)", runTab2)
}

// navPairs builds the canonical 2-pair world with receiver 2 greedy.
func navPairs(seed int64, band phys.Band, tr scenario.Transport, set greedy.FrameSet,
	extra sim.Time, gp float64, nGreedy, nPairs int) (*scenario.World, error) {
	// Zero inflation leaves the receivers compliant (a PolicySpec reads
	// zero as its 10 ms default); a zero percentage still installs the
	// policy.
	var nav scenario.PolicySpec
	if extra > 0 {
		nav = scenario.PolicySpec{Name: scenario.PolicyNAVInflation,
			NAVInflation: extra, Frames: set.String(), GreedyPercent: &gp}
	}
	return scenario.BuildPairs(scenario.PairsConfig{
		Config:        scenario.Config{Seed: seed, Band: band, UseRTSCTS: true},
		N:             nPairs,
		Transport:     tr,
		ReceiverSpecs: lastGreedy(nPairs, nGreedy, nav),
	})
}

func runFig1(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig1", Title: "UDP goodput vs CTS NAV inflation (802.11b)"}
	sweepMs := pick(cfg, []float64{0, 0.2, 0.4, 0.6, 1, 2, 5, 10})
	nr := stats.Series{Name: "NS-NR (Mbps)"}
	gr := stats.Series{Name: "GS-GR (Mbps)"}
	pts, err := sweep(sweepMs, func(ms float64) (map[int]float64, error) {
		extra := sim.FromSeconds(ms / 1000)
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.UDP, greedy.CTSOnly, extra, 100, 1, 2)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, ms := range sweepMs {
		nr.Add(ms, pts[i][1])
		gr.Add(ms, pts[i][2])
	}
	res.AddSeries("Goodput of two UDP flows; GR inflates CTS NAV.", "nav_increase_ms", nr, gr)
	return res, nil
}

// cwExtract captures the average contention window of both senders.
func cwExtract(w *scenario.World, m map[string]float64) {
	ns, _ := w.Station(scenario.SenderName(0))
	gs, _ := w.Station(scenario.SenderName(1))
	m["cw_ns"] = ns.DCF.Counters().AvgCW()
	m["cw_gs"] = gs.DCF.Counters().AvgCW()
}

func runFig2(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig2", Title: "Average CW of GS and NS vs NAV inflation (timeslots)"}
	sweepSlots := pick(cfg, []float64{0, 4, 8, 12, 16, 20, 24, 28, 32, 40})
	nsCW := stats.Series{Name: "NS avg CW"}
	gsCW := stats.Series{Name: "GS avg CW"}
	slot := phys.Params80211B().SlotTime
	pts, err := sweep(sweepSlots, func(v float64) (map[string]float64, error) {
		extra := sim.Time(v) * slot
		_, metrics, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.UDP, greedy.CTSAndACK, extra, 100, 1, 2)
		}, cwExtract)
		return metrics, err
	})
	if err != nil {
		return nil, err
	}
	for i, v := range sweepSlots {
		nsCW.Add(v, pts[i]["cw_ns"])
		gsCW.Add(v, pts[i]["cw_gs"])
	}
	res.AddSeries("GS's CW stays near CWmin (31) while NS's grows with inflation.",
		"nav_increase_slots", gsCW, nsCW)
	return res, nil
}

func runFig3(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig3", Title: "Sending ratio GS/(GS+NS): measured RTS ratio vs Eq 1-2 model"}
	sweepSlots := pick(cfg, []float64{0, 4, 8, 12, 16, 20, 24, 28})
	measured := stats.Series{Name: "measured RTS ratio"}
	model := stats.Series{Name: "Eq 1-2 model"}
	slot := phys.Params80211B().SlotTime
	pts, err := sweep(sweepSlots, func(v float64) (map[string]float64, error) {
		extra := sim.Time(v) * slot
		_, metrics, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.UDP, greedy.CTSAndACK, extra, 100, 1, 2)
		}, func(w *scenario.World, m map[string]float64) {
			ns, _ := w.Station(scenario.SenderName(0))
			gs, _ := w.Station(scenario.SenderName(1))
			nRTS := float64(ns.DCF.Counters().RTSSent)
			gRTS := float64(gs.DCF.Counters().RTSSent)
			if nRTS+gRTS > 0 {
				m["ratio"] = gRTS / (nRTS + gRTS)
			}
			// Feed the measured CW distributions into the model.
			gsDist := histToDist(gs.DCF.Counters().CWHist)
			nsDist := histToDist(ns.DCF.Counters().CWHist)
			if r, err := analytic.SendingRatio(gsDist, nsDist, int(v)); err == nil {
				m["model"] = r
			}
		})
		return metrics, err
	})
	if err != nil {
		return nil, err
	}
	for i, v := range sweepSlots {
		measured.Add(v, pts[i]["ratio"])
		model.Add(v, pts[i]["model"])
	}
	res.AddSeries("Model accuracy for the NAV-inflation send ratio.", "nav_increase_slots",
		measured, model)
	return res, nil
}

func histToDist(hist map[int]int64) analytic.CWDist {
	d := make(analytic.CWDist, len(hist))
	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return analytic.Single(31)
	}
	for cw, n := range hist {
		d[cw] = float64(n) / float64(total)
	}
	return d
}

// navTCPSweep renders one Fig 4/5 panel.
func navTCPSweep(cfg RunConfig, band phys.Band, set greedy.FrameSet, label string) (stats.Series, stats.Series, error) {
	sweepMs := pick(cfg, []float64{0, 1, 2, 5, 10, 20, 31})
	nr := stats.Series{Name: "NS-NR " + label}
	gr := stats.Series{Name: "GS-GR " + label}
	pts, err := sweep(sweepMs, func(ms float64) (map[int]float64, error) {
		extra := sim.FromSeconds(ms / 1000)
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, band, scenario.TCP, set, extra, 100, 1, 2)
		}, nil)
		return flows, err
	})
	if err != nil {
		return stats.Series{}, stats.Series{}, err
	}
	for i, ms := range sweepMs {
		nr.Add(ms, pts[i][1])
		gr.Add(ms, pts[i][2])
	}
	return nr, gr, nil
}

func runNAVTCPFigure(cfg RunConfig, id string, band phys.Band) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: id, Title: fmt.Sprintf("TCP goodput vs NAV inflation (%v)", band)}
	panels := []struct {
		caption string
		set     greedy.FrameSet
	}{
		{"(a) inflated CTS NAV", greedy.CTSOnly},
		{"(b) inflated RTS and CTS NAV", greedy.RTSAndCTS},
		{"(c) inflated ACK NAV", greedy.ACKOnly},
		{"(d) inflated NAV on all frames", greedy.AllFrames},
	}
	if cfg.Quick {
		panels = panels[:2]
	}
	for _, p := range panels {
		nr, gr, err := navTCPSweep(cfg, band, p.set, "(Mbps)")
		if err != nil {
			return nil, err
		}
		res.AddSeries(p.caption, "nav_increase_ms", nr, gr)
	}
	return res, nil
}

func runFig4(cfg RunConfig) (*Result, error) { return runNAVTCPFigure(cfg, "fig4", phys.Band80211B) }
func runFig5(cfg RunConfig) (*Result, error) { return runNAVTCPFigure(cfg, "fig5", phys.Band80211A) }

func runFig6(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig6", Title: "8 TCP flows, one greedy receiver inflating CTS NAV"}
	sweepMs := pick(cfg, []float64{0, 1, 2, 5, 10, 31})
	gr := stats.Series{Name: "greedy receiver (Mbps)"}
	nrAvg := stats.Series{Name: "avg of 7 normal receivers (Mbps)"}
	pts, err := sweep(sweepMs, func(ms float64) (map[int]float64, error) {
		extra := sim.FromSeconds(ms / 1000)
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.TCP, greedy.CTSOnly, extra, 100, 1, 8)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, ms := range sweepMs {
		var sum float64
		for id := 1; id <= 7; id++ {
			sum += pts[i][id]
		}
		nrAvg.Add(ms, sum/7)
		gr.Add(ms, pts[i][8])
	}
	res.AddSeries("It takes ≈10 ms of CTS NAV inflation to dominate 7 competitors.",
		"nav_increase_ms", gr, nrAvg)
	return res, nil
}

func runFig7(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig7", Title: "Goodput vs greedy percentage at NAV +5/10/31 ms (TCP)"}
	gps := pick(cfg, []float64{0, 25, 50, 75, 100})
	for _, navMs := range []float64{5, 10, 31} {
		extra := sim.FromSeconds(navMs / 1000)
		nr := stats.Series{Name: "NS-NR (Mbps)"}
		gr := stats.Series{Name: "GS-GR (Mbps)"}
		pts, err := sweep(gps, func(gp float64) (map[int]float64, error) {
			flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return navPairs(seed, phys.Band80211B, scenario.TCP, greedy.CTSOnly, extra, gp, 1, 2)
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
		res.AddSeries(fmt.Sprintf("NAV inflated by %.0f ms", navMs), "greedy_percent", nr, gr)
	}
	return res, nil
}

func runFig8(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig8", Title: "Goodput under 0, 1, or 2 greedy receivers (TCP)"}
	t := stats.Table{
		Title:  "CTS NAV inflation; receivers R1, R2 (greedy receivers are the last k).",
		Header: []string{"nav_ms", "greedy_count", "R1_mbps", "R2_mbps"},
	}
	counts := []int{0, 1, 2}
	if cfg.Quick {
		counts = []int{0, 2}
	}
	type rowCase struct {
		navMs float64
		k     int
	}
	var cases []rowCase
	for _, navMs := range []float64{5, 10, 31} {
		for _, k := range counts {
			cases = append(cases, rowCase{navMs, k})
		}
	}
	rows, err := sweep(cases, func(rc rowCase) (map[int]float64, error) {
		extra := sim.FromSeconds(rc.navMs / 1000)
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.TCP, greedy.CTSOnly, extra, 100, rc.k, 2)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, rc := range cases {
		t.AddRow(rc.navMs, rc.k, rows[i][1], rows[i][2])
	}
	res.AddTable(t)
	return res, nil
}

func runFig9(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig9", Title: "8 TCP flows: per-receiver goodput vs number of greedy receivers (NAV +31 ms)"}
	t := stats.Table{
		Title:  "Receivers 8-k+1 .. 8 are greedy; only one greedy receiver survives.",
		Header: []string{"greedy_count", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"},
	}
	counts := []int{0, 1, 2, 4, 8}
	if cfg.Quick {
		counts = []int{0, 2}
	}
	rows, err := sweep(counts, func(k int) (map[int]float64, error) {
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.TCP, greedy.CTSOnly, 31*sim.Millisecond, 100, k, 8)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, k := range counts {
		row := make([]any, 0, 9)
		row = append(row, k)
		for id := 1; id <= 8; id++ {
			row = append(row, rows[i][id])
		}
		t.AddRow(row...)
	}
	res.AddTable(t)
	return res, nil
}

// sharedAP builds the one-sender topology with receiver n-1 greedy.
func sharedAP(seed int64, tr scenario.Transport, n int, extra sim.Time) (*scenario.World, error) {
	var nav scenario.PolicySpec
	if extra > 0 {
		nav = scenario.PolicySpec{Name: scenario.PolicyNAVInflation, NAVInflation: extra, Frames: "cts"}
	}
	return scenario.BuildSharedAP(scenario.SharedAPConfig{
		Config:        scenario.Config{Seed: seed, Band: phys.Band80211B, UseRTSCTS: true},
		N:             n,
		Transport:     tr,
		ReceiverSpecs: lastGreedy(n, 1, nav),
	})
}

func runFig10(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig10", Title: "One sender, multiple receivers; last receiver inflates CTS NAV"}
	sweepMs := pick(cfg, []float64{0, 1, 2, 5, 10, 20, 31})

	panel := func(caption string, tr scenario.Transport, n int) error {
		nr := stats.Series{Name: "normal avg (Mbps)"}
		gr := stats.Series{Name: "greedy (Mbps)"}
		pts, err := sweep(sweepMs, func(ms float64) (map[int]float64, error) {
			extra := sim.FromSeconds(ms / 1000)
			flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return sharedAP(seed, tr, n, extra)
			}, nil)
			return flows, err
		})
		if err != nil {
			return err
		}
		for i, ms := range sweepMs {
			var sum float64
			for id := 1; id < n; id++ {
				sum += pts[i][id]
			}
			nr.Add(ms, sum/float64(n-1))
			gr.Add(ms, pts[i][n])
		}
		res.AddSeries(caption, "nav_increase_ms", nr, gr)
		return nil
	}
	if err := panel("(a) TCP, 2 receivers", scenario.TCP, 2); err != nil {
		return nil, err
	}
	if !cfg.Quick {
		if err := panel("(b) TCP, 8 receivers", scenario.TCP, 8); err != nil {
			return nil, err
		}
	}
	if err := panel("(c) UDP, 2 receivers", scenario.UDP, 2); err != nil {
		return nil, err
	}
	return res, nil
}

func runTab2(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab2", Title: "Average TCP congestion window (packets)"}
	t := stats.Table{
		Title:  "1 sender: shared AP to NR+GR. 2 senders: separate pairs. GR inflates CTS NAV.",
		Header: []string{"nav_ms", "1snd_S-NR", "1snd_S-GR", "2snd_NS-NR", "2snd_GS-GR"},
	}
	sweepMs := pick(cfg, []float64{0, 1, 2, 5, 10, 20, 31})
	cwnd := func(w *scenario.World, m map[string]float64) {
		f1, _ := w.Flow(1)
		f2, _ := w.Flow(2)
		m["cwnd1"] = f1.TCPSend.AvgCwnd()
		m["cwnd2"] = f2.TCPSend.AvgCwnd()
	}
	type cwndPoint struct {
		oneSnd, twoSnd map[string]float64
	}
	pts, err := sweep(sweepMs, func(ms float64) (cwndPoint, error) {
		extra := sim.FromSeconds(ms / 1000)
		_, oneSnd, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return sharedAP(seed, scenario.TCP, 2, extra)
		}, cwnd)
		if err != nil {
			return cwndPoint{}, err
		}
		_, twoSnd, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return navPairs(seed, phys.Band80211B, scenario.TCP, greedy.CTSOnly, extra, 100, 1, 2)
		}, cwnd)
		if err != nil {
			return cwndPoint{}, err
		}
		return cwndPoint{oneSnd, twoSnd}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ms := range sweepMs {
		p := pts[i]
		t.AddRow(ms, p.oneSnd["cwnd1"], p.oneSnd["cwnd2"], p.twoSnd["cwnd1"], p.twoSnd["cwnd2"])
	}
	res.AddTable(t)
	return res, nil
}
