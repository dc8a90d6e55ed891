package scenario

import (
	"fmt"
	"math"

	"greedy80211/internal/medium"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// Multi-BSS layout defaults.
const (
	// DefaultCellSpacing separates adjacent grid cells. 100 m keeps
	// same-channel neighbors outside communication range under the
	// default propagation while leaving them well inside carrier-sense
	// range — the overlapping-hotspot regime.
	DefaultCellSpacing = 100.0
	// DefaultCellRadius is the station ring radius around each AP.
	DefaultCellRadius = 10.0
)

// CellAPName names cell c's access point ("AP1", "AP2", … 1-based as
// elsewhere).
func CellAPName(c int) string { return fmt.Sprintf("AP%d", c+1) }

// CellStationName names station s of cell c ("C1S1", "C1S2", …).
func CellStationName(c, s int) string { return fmt.Sprintf("C%dS%d", c+1, s+1) }

// CellSpec describes one BSS: an AP plus a ring of client stations on a
// shared channel. Zero values inherit the TopologySpec defaults.
type CellSpec struct {
	// Channel is the cell's channel; zero takes the topology's channel
	// plan (or medium.DefaultChannel without one).
	Channel int `json:"channel,omitempty"`
	// Stations is the number of client stations; zero inherits
	// DefaultStations.
	Stations int `json:"stations,omitempty"`
	// Uplink is how many of the cell's stations send uplink traffic to
	// the AP; the rest receive downlink. Zero inherits DefaultUplink.
	Uplink int `json:"uplink,omitempty"`
	// Center overrides the cell's grid placement — set it to build
	// clusters instead of grids.
	Center *phys.Position `json:"center,omitempty"`
	// Radius is the station ring radius; zero inherits DefaultRadius.
	Radius float64 `json:"radius,omitempty"`
	// StationSpecs customizes individual stations (greedy placement, GRC
	// deployment); missing indices are compliant stations.
	StationSpecs []StationSpec `json:"station_specs,omitempty"`
}

// TopologySpec is the serializable description of a multi-BSS world: how
// many cells, where they sit, which channels they use, and which
// stations misbehave. It contains no Go closures, so campaign files can
// carry whole hotspot deployments as JSON.
type TopologySpec struct {
	// Cells enumerates per-cell overrides. Cells beyond len(Cells), up
	// to NumCells, use the defaults.
	Cells []CellSpec `json:"cells,omitempty"`
	// NumCells is the total cell count when larger than len(Cells) — a
	// homogeneous grid needs no per-cell entries.
	NumCells int `json:"num_cells,omitempty"`
	// GridCols is the grid width; zero means the squarest grid
	// (ceil(sqrt(n)) columns).
	GridCols int `json:"grid_cols,omitempty"`
	// GridSpacing is the distance between adjacent cell centers; zero
	// means DefaultCellSpacing.
	GridSpacing float64 `json:"grid_spacing,omitempty"`
	// ChannelPlan assigns channels round-robin to cells without an
	// explicit Channel; empty means every cell shares
	// medium.DefaultChannel.
	ChannelPlan []int `json:"channel_plan,omitempty"`
	// DefaultStations is the station count for cells that leave Stations
	// zero.
	DefaultStations int `json:"default_stations,omitempty"`
	// DefaultUplink is the uplink count for cells that leave Uplink zero.
	DefaultUplink int `json:"default_uplink,omitempty"`
	// DefaultRadius is the ring radius for cells that leave Radius zero;
	// zero means DefaultCellRadius.
	DefaultRadius float64 `json:"default_radius,omitempty"`
}

// cellCount is the effective number of cells.
func (t TopologySpec) cellCount() int {
	if t.NumCells > len(t.Cells) {
		return t.NumCells
	}
	return len(t.Cells)
}

// cell resolves cell c with the topology defaults applied.
func (t TopologySpec) cell(c int) CellSpec {
	var cs CellSpec
	if c < len(t.Cells) {
		cs = t.Cells[c]
	}
	if cs.Stations == 0 {
		cs.Stations = t.DefaultStations
	}
	if cs.Uplink == 0 {
		cs.Uplink = t.DefaultUplink
	}
	if cs.Radius == 0 {
		cs.Radius = t.DefaultRadius
	}
	if cs.Radius == 0 {
		cs.Radius = DefaultCellRadius
	}
	if cs.Channel == 0 {
		if len(t.ChannelPlan) > 0 {
			cs.Channel = t.ChannelPlan[c%len(t.ChannelPlan)]
		} else {
			cs.Channel = medium.DefaultChannel
		}
	}
	return cs
}

// Validate reports whether the topology is well-formed.
func (t TopologySpec) Validate() error {
	if t.cellCount() <= 0 {
		return fmt.Errorf("scenario: TopologySpec has no cells")
	}
	if t.GridCols < 0 || t.NumCells < 0 || t.GridSpacing < 0 || t.DefaultRadius < 0 {
		return fmt.Errorf("scenario: TopologySpec has negative layout parameters")
	}
	for i, ch := range t.ChannelPlan {
		if ch <= 0 {
			return fmt.Errorf("scenario: TopologySpec channel plan entry %d is %d, want positive", i, ch)
		}
	}
	for c := 0; c < t.cellCount(); c++ {
		cs := t.cell(c)
		if cs.Stations < 0 || cs.Channel < 0 {
			return fmt.Errorf("scenario: cell %d has negative parameters", c)
		}
		if cs.Uplink < 0 || cs.Uplink > cs.Stations {
			return fmt.Errorf("scenario: cell %d uplink count %d exceeds its %d stations", c, cs.Uplink, cs.Stations)
		}
		if len(cs.StationSpecs) > cs.Stations {
			return fmt.Errorf("scenario: cell %d has %d station specs for %d stations", c, len(cs.StationSpecs), cs.Stations)
		}
	}
	return nil
}

// CellsConfig builds a multi-BSS hotspot world from a TopologySpec.
type CellsConfig struct {
	Config
	Topology TopologySpec
	// Transport selects UDP (CBR) or TCP for every flow.
	Transport Transport
	// CBRRateBps is the per-flow UDP rate; zero means the saturating
	// default.
	CBRRateBps float64
	// PayloadBytes is the data packet size; zero means 1024.
	PayloadBytes int
}

// BuildCells constructs the multi-BSS world: per cell, one AP at the
// grid point (or the cell's Center) and a ring of stations around it,
// all on the cell's channel, with one flow per station (downlink from
// the AP, or uplink for the first Uplink stations). Flow IDs are
// sequential across cells in cell order.
func BuildCells(cfg CellsConfig) (*World, error) {
	top := cfg.Topology
	if err := top.Validate(); err != nil {
		return nil, err
	}
	n := top.cellCount()
	cols := top.GridCols
	if cols == 0 {
		cols = int(math.Ceil(math.Sqrt(float64(n))))
	}
	spacing := top.GridSpacing
	if spacing == 0 {
		spacing = DefaultCellSpacing
	}
	// A multi-BSS world carries hundreds of flows; the single-cell 1 ms
	// start stagger would push late flows past typical run lengths.
	if cfg.FlowStagger == 0 {
		cfg.FlowStagger = 10 * sim.Microsecond
	}
	w, err := NewWorld(cfg.Config)
	if err != nil {
		return nil, err
	}
	flowID := 1
	for c := 0; c < n; c++ {
		cell := top.cell(c)
		center := phys.Position{X: float64(c%cols) * spacing, Y: float64(c/cols) * spacing}
		if cell.Center != nil {
			center = *cell.Center
		}
		if _, err := w.AddStation(CellAPName(c), center, StationSpec{Channel: cell.Channel}); err != nil {
			return nil, err
		}
		for s := 0; s < cell.Stations; s++ {
			// Deterministic ring placement: station s at angle
			// 2πs/count, so layouts are reproducible without RNG draws.
			theta := 2 * math.Pi * float64(s) / float64(cell.Stations)
			pos := phys.Position{
				X: center.X + cell.Radius*math.Cos(theta),
				Y: center.Y + cell.Radius*math.Sin(theta),
			}
			spec := specAt(cell.StationSpecs, s)
			if spec.Channel == 0 {
				spec.Channel = cell.Channel
			}
			if _, err := w.AddStation(CellStationName(c, s), pos, spec); err != nil {
				return nil, err
			}
		}
		for s := 0; s < cell.Stations; s++ {
			src, dst := CellAPName(c), CellStationName(c, s)
			if s < cell.Uplink {
				src, dst = dst, src
			}
			if err := w.addFlow(flowID, cfg.Transport, src, dst, cfg.CBRRateBps, cfg.PayloadBytes); err != nil {
				return nil, err
			}
			flowID++
		}
	}
	return w, nil
}
