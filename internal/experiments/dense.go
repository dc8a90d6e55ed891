package experiments

import (
	"greedy80211/internal/scenario"
	"greedy80211/internal/stats"
)

func registerDense() {
	register("dense1", "Extension: greedy receiver in a dense multi-BSS hotspot grid × channel plan", "multi-BSS extension (beyond paper)", runDense1)
}

// The dense hotspot deployment: a 3×3 grid of BSSs, each an AP with
// three clients (one uplink, two downlink), cell centers 100 m apart so
// every cell carrier-senses every co-channel cell.
const (
	denseCells    = 9
	denseStations = 3
	denseUplink   = 1
	// denseGreedyCell hosts the misbehaving client: the center cell,
	// which overlaps the most neighbors.
	denseGreedyCell = 4
	// denseGreedyStation is the greedy client's index in its cell — a
	// downlink receiver (index 0 is the uplink sender).
	denseGreedyStation = 1
	// denseRateBps keeps 27 concurrent flows near saturation without
	// the single-pair rate's event blow-up.
	denseRateBps = 1e6
)

// denseWorld builds the grid on the given channel plan; greedy toggles
// fake ACKs on the center cell's first downlink receiver.
func denseWorld(seed int64, plan []int, greedy bool) (*scenario.World, error) {
	top := scenario.TopologySpec{
		NumCells:        denseCells,
		GridCols:        3,
		ChannelPlan:     plan,
		DefaultStations: denseStations,
		DefaultUplink:   denseUplink,
	}
	if greedy {
		cells := make([]scenario.CellSpec, denseGreedyCell+1)
		specs := make([]scenario.StationSpec, denseGreedyStation+1)
		specs[denseGreedyStation] = scenario.StationSpec{
			Policy: scenario.PolicySpec{Name: scenario.PolicyFakeACKs},
		}
		cells[denseGreedyCell] = scenario.CellSpec{StationSpecs: specs}
		top.Cells = cells
	}
	return scenario.BuildCells(scenario.CellsConfig{
		Config:     scenario.Config{Seed: seed},
		Topology:   top,
		CBRRateBps: denseRateBps,
	})
}

func runDense1(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "dense1", Title: "Greedy receiver in a dense multi-BSS hotspot grid"}
	t := stats.Table{
		Title:  "Fake ACKs in the center BSS: the greedy flow's gain and the collateral damage shrink as the channel plan separates overlapping cells.",
		Header: []string{"plan", "case", "greedy_flow", "same_cell_avg", "other_cells_avg", "aggregate"},
	}
	plans := []struct {
		name string
		plan []int
	}{
		{"3-channel", []int{1, 6, 11}},
		{"1-channel", []int{1}},
	}
	if cfg.Quick {
		plans = plans[:1]
	}
	type planPoint struct{ base, att map[int]float64 }
	pts, err := sweep(plans, func(p struct {
		name string
		plan []int
	}) (planPoint, error) {
		base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return denseWorld(seed, p.plan, false)
		}, nil)
		if err != nil {
			return planPoint{}, err
		}
		att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return denseWorld(seed, p.plan, true)
		}, nil)
		return planPoint{base, att}, err
	})
	if err != nil {
		return nil, err
	}
	greedyFlow := denseGreedyCell*denseStations + denseGreedyStation + 1
	for i, p := range plans {
		for _, c := range []struct {
			name  string
			flows map[int]float64
		}{
			{"no GR", pts[i].base},
			{"center GR", pts[i].att},
		} {
			var sameSum, otherSum, total float64
			for id, v := range c.flows {
				total += v
				cell := (id - 1) / denseStations
				switch {
				case id == greedyFlow:
				case cell == denseGreedyCell:
					sameSum += v
				default:
					otherSum += v
				}
			}
			t.AddRow(p.name, c.name,
				c.flows[greedyFlow],
				sameSum/float64(denseStations-1),
				otherSum/float64((denseCells-1)*denseStations),
				total)
		}
	}
	res.AddTable(t)
	return res, nil
}
