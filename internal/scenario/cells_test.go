package scenario

import (
	"encoding/json"
	"testing"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

func TestTopologySpecJSONRoundTrip(t *testing.T) {
	in := TopologySpec{
		NumCells:        4,
		GridCols:        2,
		GridSpacing:     80,
		ChannelPlan:     []int{1, 6, 11},
		DefaultStations: 3,
		DefaultUplink:   1,
		Cells: []CellSpec{{
			Channel:  6,
			Stations: 5,
			StationSpecs: []StationSpec{
				{}, {Policy: PolicySpec{Name: PolicyFakeACKs, GreedyPercent: percent(80)}},
			},
		}},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out TopologySpec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.NumCells != 4 || len(out.ChannelPlan) != 3 || len(out.Cells) != 1 ||
		out.Cells[0].StationSpecs[1].Policy.Name != PolicyFakeACKs {
		t.Fatalf("round trip = %+v (raw %s)", out, raw)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologySpecValidate(t *testing.T) {
	for name, top := range map[string]TopologySpec{
		"empty":          {},
		"bad channel":    {NumCells: 2, ChannelPlan: []int{0}},
		"uplink exceeds": {Cells: []CellSpec{{Stations: 2, Uplink: 3}}},
		"excess specs":   {Cells: []CellSpec{{Stations: 1, StationSpecs: []StationSpec{{}, {}}}}},
		"negative":       {NumCells: 2, GridSpacing: -1},
	} {
		t.Run(name, func(t *testing.T) {
			if err := top.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", top)
			}
		})
	}
}

// TestBuildCellsStructure: a 2×2 grid with a 2-channel plan produces the
// right stations, channels, flows, and per-cell uplink/downlink mix.
func TestBuildCellsStructure(t *testing.T) {
	w, err := BuildCells(CellsConfig{
		Config: Config{Seed: 1},
		Topology: TopologySpec{
			NumCells:        4,
			GridCols:        2,
			ChannelPlan:     []int{1, 6},
			DefaultStations: 3,
			DefaultUplink:   1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Flows()); got != 12 {
		t.Fatalf("flows = %d, want 12", got)
	}
	for c := 0; c < 4; c++ {
		wantCh := []int{1, 6}[c%2]
		ap, ok := w.Station(CellAPName(c))
		if !ok {
			t.Fatalf("cell %d AP missing", c)
		}
		if ch, _ := w.Medium.Channel(ap.ID); ch != wantCh {
			t.Fatalf("cell %d AP on channel %d, want %d", c, ch, wantCh)
		}
		for s := 0; s < 3; s++ {
			st, ok := w.Station(CellStationName(c, s))
			if !ok {
				t.Fatalf("cell %d station %d missing", c, s)
			}
			if ch, _ := w.Medium.Channel(st.ID); ch != wantCh {
				t.Fatalf("cell %d station %d on channel %d, want %d", c, s, ch, wantCh)
			}
		}
	}
	// Cell 0's flows: station 0 uplink, stations 1-2 downlink.
	fl := w.Flows()
	if fl[0].From != CellStationName(0, 0) || fl[0].To != CellAPName(0) {
		t.Fatalf("flow 1 = %s→%s, want uplink", fl[0].From, fl[0].To)
	}
	if fl[1].From != CellAPName(0) || fl[1].To != CellStationName(0, 1) {
		t.Fatalf("flow 2 = %s→%s, want downlink", fl[1].From, fl[1].To)
	}
}

// TestBuildCellsChannelIsolation: two co-located cells on different
// channels each match a lone cell's goodput exactly — off-channel radios
// neither interfere nor even cost delivery events.
func TestBuildCellsChannelIsolation(t *testing.T) {
	center := phys.Position{X: 0, Y: 0}
	run := func(top TopologySpec) []float64 {
		t.Helper()
		w, err := BuildCells(CellsConfig{
			Config:   Config{Seed: 5},
			Topology: top,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(200 * sim.Millisecond)
		var out []float64
		for _, fl := range w.Flows() {
			out = append(out, fl.GoodputMbps(200*sim.Millisecond))
		}
		return out
	}
	lone := run(TopologySpec{Cells: []CellSpec{
		{Channel: 1, Stations: 2, Center: &center},
	}})
	both := run(TopologySpec{Cells: []CellSpec{
		{Channel: 1, Stations: 2, Center: &center},
		{Channel: 6, Stations: 2, Center: &center},
	}})
	for i := range lone {
		if lone[i] != both[i] {
			t.Fatalf("flow %d: lone-cell goodput %v != co-located off-channel %v", i+1, lone[i], both[i])
		}
	}
	if lone[0] == 0 {
		t.Fatal("lone cell carried no traffic; the comparison is vacuous")
	}
}

// TestLargeMultiBSSWorld: the acceptance-scale world — 50 APs and 1000
// stations — builds and runs to completion. GRC-evaluation propagation
// (55 m / 99 m) with a 3-channel plan keeps each BSS's neighbor set
// small, which is exactly the regime neighbor-scoped delivery targets.
func TestLargeMultiBSSWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("large world in -short mode")
	}
	prop := phys.GRCPropagation()
	w, err := BuildCells(CellsConfig{
		Config: Config{Seed: 7, Propagation: &prop},
		Topology: TopologySpec{
			NumCells:        50,
			ChannelPlan:     []int{1, 6, 11},
			DefaultStations: 20,
			DefaultUplink:   5,
		},
		CBRRateBps: 1e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(100 * sim.Millisecond)
	if got := len(w.Flows()); got != 1000 {
		t.Fatalf("flows = %d, want 1000", got)
	}
	var total float64
	for _, fl := range w.Flows() {
		total += fl.GoodputMbps(100 * sim.Millisecond)
	}
	if total == 0 {
		t.Fatal("1000-station world carried no traffic")
	}
	// Neighbor sets stay cell-sized: a station hears its own BSS (21
	// radios) and possibly a touching cell, never the whole 1050-radio
	// world.
	ap, _ := w.Station(CellAPName(0))
	if n := w.Medium.NeighborCount(ap.ID); n >= 100 {
		t.Fatalf("AP1 has %d neighbors; scoping failed to clip the world", n)
	}
}

// BenchmarkBuildCellsDense times world construction alone for perfbench's
// dense grid: 100 cells × 20 stations on channels 1/6/11 (2,100 radios,
// 2,000 CBR flows), about 4,100 RNG streams to seed.
func BenchmarkBuildCellsDense(b *testing.B) {
	prop := phys.GRCPropagation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := BuildCells(CellsConfig{
			Config: Config{Seed: int64(i + 1), Propagation: &prop},
			Topology: TopologySpec{
				NumCells:        100,
				ChannelPlan:     []int{1, 6, 11},
				DefaultStations: 20,
				DefaultUplink:   5,
			},
			CBRRateBps: 2e5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
