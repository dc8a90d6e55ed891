package experiments

import (
	"fmt"

	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/stats"
)

func registerFake() {
	register("fig18", "Fake ACKs under hidden-terminal collisions vs greedy percentage (UDP)", "Fig. 18 (§V-C)", runFig18)
	register("tab4", "Sender contention window with fake ACKs under hidden terminals (GP 100%)", "Table IV (§V-C)", runTab4)
	register("tab5", "Fake-ACK goodput under inherent wireless losses (802.11b, UDP)", "Table V (§V-C)", runTab5)
	register("fig19", "Fake ACKs: one greedy receiver vs N normal pairs × loss rate (UDP)", "Fig. 19 (§V-C)", runFig19)
}

// hiddenWorld builds the Fig 18 topology with the last nGreedy receivers
// faking ACKs at greedy percentage gp.
func hiddenWorld(seed int64, band phys.Band, gp float64, nGreedy int) (*scenario.World, error) {
	return scenario.BuildHiddenPairs(scenario.HiddenPairsConfig{
		Config:        scenario.Config{Seed: seed, Band: band},
		ReceiverSpecs: lastGreedy(2, nGreedy, fakePolicy(gp)),
	})
}

// fakePolicy is misbehavior 3 at greedy percentage gp; zero gp never
// fakes, so it is the compliant zero spec.
func fakePolicy(gp float64) scenario.PolicySpec {
	if gp == 0 {
		return scenario.PolicySpec{}
	}
	return scenario.PolicySpec{Name: scenario.PolicyFakeACKs, GreedyPercent: &gp}
}

func runFig18(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig18", Title: "Fake ACKs with hidden-terminal collision losses"}
	gps := pick(cfg, []float64{0, 25, 50, 75, 100})

	oneR1 := stats.Series{Name: "1 GR: R1 normal (Mbps)"}
	oneR2 := stats.Series{Name: "1 GR: R2 greedy (Mbps)"}
	bothR1 := stats.Series{Name: "2 GR: R1 (Mbps)"}
	bothR2 := stats.Series{Name: "2 GR: R2 (Mbps)"}
	pts, err := sweep(gps, func(gp float64) (baseAttPoint, error) {
		one, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return hiddenWorld(seed, phys.Band80211B, gp, 1)
		}, nil)
		if err != nil {
			return baseAttPoint{}, err
		}
		both, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return hiddenWorld(seed, phys.Band80211B, gp, 2)
		}, nil)
		return baseAttPoint{base: one, att: both}, err
	})
	if err != nil {
		return nil, err
	}
	for i, gp := range gps {
		oneR1.Add(gp, pts[i].base[1])
		oneR2.Add(gp, pts[i].base[2])
		bothR1.Add(gp, pts[i].att[1])
		bothR2.Add(gp, pts[i].att[2])
	}
	res.AddSeries("(a) only R2 fakes ACKs: its gain grows with GP.",
		"greedy_percent", oneR1, oneR2)
	res.AddSeries("(b) both fake ACKs: disabled backoff breeds collisions and both suffer.",
		"greedy_percent", bothR1, bothR2)
	return res, nil
}

func runTab4(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab4", Title: "Average sender CW, hidden terminals, UDP, GP 100%"}
	t := stats.Table{
		Title:  "Fake ACKs pin the greedy flow's sender near CWmin while the normal sender backs off.",
		Header: []string{"band", "case", "S1_avg_cw", "S2_avg_cw"},
	}
	bands := []phys.Band{phys.Band80211B, phys.Band80211A}
	if cfg.Quick {
		bands = bands[:1]
	}
	type rowCase struct {
		band    phys.Band
		name    string
		nGreedy int
	}
	var cases []rowCase
	for _, band := range bands {
		for _, tc := range []struct {
			name    string
			nGreedy int
		}{
			{"no GR", 0},
			{"R2 GR", 1},
			{"both GR", 2},
		} {
			cases = append(cases, rowCase{band, tc.name, tc.nGreedy})
		}
	}
	rows, err := sweep(cases, func(rc rowCase) (map[string]float64, error) {
		_, metrics, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return hiddenWorld(seed, rc.band, 100, rc.nGreedy)
		}, cwExtract)
		return metrics, err
	})
	if err != nil {
		return nil, err
	}
	for i, rc := range cases {
		t.AddRow(rc.band.String(), rc.name, rows[i]["cw_ns"], rows[i]["cw_gs"])
	}
	res.AddTable(t)
	return res, nil
}

// inherentLossPairs builds 2 UDP pairs with a fixed data-frame error rate
// on every link (inherent medium loss, not collision loss).
func inherentLossPairs(seed int64, dataFER, gp float64, nGreedy int) (*scenario.World, error) {
	return scenario.BuildPairs(scenario.PairsConfig{
		Config: scenario.Config{
			Seed: seed, UseRTSCTS: true, Error: phys.DataFERSpec(dataFER),
		},
		N:             2,
		Transport:     scenario.UDP,
		ReceiverSpecs: lastGreedy(2, nGreedy, fakePolicy(gp)),
	})
}

func runTab5(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab5", Title: "Fake-ACK goodput under inherent wireless losses"}
	t := stats.Table{
		Title:  "Under non-collision losses, backoff is pure waste: faking ACKs helps modestly.",
		Header: []string{"data_fer", "noGR_R1", "noGR_R2", "1GR_R1", "1GR_R2(GR)", "2GR_R1", "2GR_R2"},
	}
	fers := pick(cfg, []float64{0.2, 0.5, 0.8})
	type ferPoint struct {
		base, one, two map[int]float64
	}
	pts, err := sweep(fers, func(fer float64) (ferPoint, error) {
		base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return inherentLossPairs(seed, fer, 0, 0)
		}, nil)
		if err != nil {
			return ferPoint{}, err
		}
		one, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return inherentLossPairs(seed, fer, 100, 1)
		}, nil)
		if err != nil {
			return ferPoint{}, err
		}
		two, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return inherentLossPairs(seed, fer, 100, 2)
		}, nil)
		return ferPoint{base, one, two}, err
	})
	if err != nil {
		return nil, err
	}
	for i, fer := range fers {
		p := pts[i]
		t.AddRow(fer, p.base[1], p.base[2], p.one[1], p.one[2], p.two[1], p.two[2])
	}
	res.AddTable(t)
	return res, nil
}

func runFig19(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "fig19", Title: "Fake ACKs: one greedy receiver vs N normal pairs × loss"}
	ns := []int{1, 2, 3, 5}
	if cfg.Quick {
		ns = []int{1, 3}
	}
	for _, fer := range []float64{0.2, 0.5} {
		nrAvg := stats.Series{Name: "normal avg (Mbps)"}
		gr := stats.Series{Name: "greedy (Mbps)"}
		pts, err := sweep(ns, func(n int) (map[int]float64, error) {
			total := n + 1
			flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
				return scenario.BuildPairs(scenario.PairsConfig{
					Config: scenario.Config{
						Seed: seed, UseRTSCTS: true, Error: phys.DataFERSpec(fer),
					},
					N:             total,
					Transport:     scenario.UDP,
					ReceiverSpecs: lastGreedy(total, 1, fakePolicy(100)),
				})
			}, nil)
			return flows, err
		})
		if err != nil {
			return nil, err
		}
		for i, n := range ns {
			total := n + 1
			var sum float64
			for id := 1; id < total; id++ {
				sum += pts[i][id]
			}
			nrAvg.Add(float64(n), sum/float64(n))
			gr.Add(float64(n), pts[i][total])
		}
		res.AddSeries(fmt.Sprintf("data frame error rate %.1f", fer),
			"normal_pairs", nrAvg, gr)
	}
	return res, nil
}
