package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"greedy80211/internal/metrics"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

// denseShape is one multi-BSS grid: cells × stations per cell on a
// three-channel plan, CBR flows with the first uplink stations of each
// cell sending to their AP.
type denseShape struct {
	cells, stations, uplink int
	rateBps                 float64
	run, slice              sim.Time
}

// denseWorkload is the benchmark's dense grid: 100 cells × 20 stations
// (2,100 radios), one simulated second in 50 ms slices.
var denseWorkload = denseShape{
	cells: 100, stations: 20, uplink: 5, rateBps: 2e5,
	run: sim.Second, slice: 50 * sim.Millisecond,
}

func buildDense(shape denseShape, seed int64) (*scenario.World, error) {
	prop := phys.GRCPropagation()
	return scenario.BuildCells(scenario.CellsConfig{
		Config: scenario.Config{Seed: seed, Propagation: &prop},
		Topology: scenario.TopologySpec{
			NumCells:        shape.cells,
			ChannelPlan:     []int{1, 6, 11},
			DefaultStations: shape.stations,
			DefaultUplink:   shape.uplink,
		},
		CBRRateBps: shape.rateBps,
	})
}

// runSliced runs w for shape.run: World.Run for the first slice, then
// Sched.RunUntil slice by slice, returning the largest pending-event
// count seen between slices.
func runSliced(w *scenario.World, shape denseShape, tr *tracer) int {
	peak := 0
	tr.call("sim", "World.Run", func() error { w.Run(shape.slice); return nil })
	for t := 2 * shape.slice; t <= shape.run; t += shape.slice {
		peak = max(peak, w.Sched.Pending())
		end := t
		tr.call("sim", "Sched.RunUntil", func() error { w.Sched.RunUntil(end); return nil })
	}
	return max(peak, w.Sched.Pending())
}

// denseBench is one world on one core: a deep scheduler heap and a
// 20-neighbour medium fan-out. Every pass rebuilds and reruns the same
// seed, so every pass must end in the same state.
type denseBench struct {
	shape denseShape
	seed  int64
	world *scenario.World
	// first pass's end state, which every later pass must reproduce
	executed uint64
	snapshot []byte
}

func newDense(seed int64) *denseBench { return &denseBench{shape: denseWorkload, seed: seed} }

func (d *denseBench) setup(tr *tracer) (time.Duration, error) {
	d.world = nil
	t0 := time.Now()
	var w *scenario.World
	_, err := tr.call("scenario", "BuildCells", func() (err error) {
		w, err = buildDense(d.shape, d.seed)
		return err
	})
	elapsed := time.Since(t0)
	d.world = w
	return elapsed, err
}

func (d *denseBench) pass(tr *tracer) (sample, error) {
	s := sample{census: map[string]float64{}, layer: map[string]float64{}}
	w := d.world
	if w == nil {
		return s, fmt.Errorf("dense: no world built")
	}
	d.world = nil // one run per build
	sw := startWatch()
	peak := runSliced(w, d.shape, tr)
	s.wall, s.cpu = sw.stop()

	// The run's read-out, as the experiments take it: one snapshot of
	// every station's telemetry.
	ws := startWatch()
	var snap *metrics.Snapshot
	ct, _ := tr.call("metrics", "MetricsSnapshot", func() error {
		snap = w.MetricsSnapshot()
		return nil
	})
	s.warmWall, _ = ws.stop()
	s.layer["metrics.snapshot_s"] = secs(ct.wall)
	s.warm = float64(len(snap.Stations))

	denseCensus(s.census, w, d.shape, snap, peak)
	s.events = s.census["sim.events_executed"]
	s.units = 1
	return s, d.check(w, snap)
}

// denseCensus records the world's exact end-of-run counts.
func denseCensus(c map[string]float64, w *scenario.World, shape denseShape, snap *metrics.Snapshot, peak int) {
	ps := w.PoolStats()
	c["sim.events_executed"] = float64(w.Sched.Executed())
	c["sim.events_scheduled"] = float64(ps.Events.Gets)
	c["sim.pending_peak"] = float64(peak)
	c["medium.arrivals"] = float64(ps.Arrivals.Gets)
	c["mac.frames"] = float64(ps.Frames.Gets)
	c["transport.packets"] = float64(ps.Packets.Gets)
	c["scenario.worlds"] = 1
	macCensus(c, []*metrics.Snapshot{snap})
	var neighbors, radios float64
	for cell := 0; cell < shape.cells; cell++ {
		names := []string{scenario.CellAPName(cell)}
		for i := 0; i < shape.stations; i++ {
			names = append(names, scenario.CellStationName(cell, i))
		}
		for _, n := range names {
			if st, ok := w.Station(n); ok {
				neighbors += float64(w.Medium.NeighborCount(st.ID))
				radios++
			}
		}
	}
	c["medium.avg_neighbors"] = ratio(neighbors, radios)
	var offered, delivered float64
	for _, f := range w.Flows() {
		if f.CBR != nil {
			offered += float64(f.CBR.Offered())
			delivered += float64(f.Stats().UniquePackets)
		}
	}
	c["transport.delivery_ratio"] = ratio(delivered, offered)
}

// check holds the pass to the conservation laws and to the first pass's
// end state.
func (d *denseBench) check(w *scenario.World, snap *metrics.Snapshot) error {
	for _, f := range w.Flows() {
		if f.CBR == nil {
			continue
		}
		if got, sent := f.Stats().UniquePackets, f.CBR.Offered(); got > sent {
			return fmt.Errorf("dense: flow %d delivered %d of %d offered", f.ID, got, sent)
		}
	}
	lo, hi := metrics.UtilizationBounds([]*metrics.Snapshot{snap})
	if math.IsNaN(lo) || lo <= 0 || hi < lo || hi > float64(len(snap.Stations)) {
		return fmt.Errorf("dense: channel utilization bounds [%v, %v] out of range", lo, hi)
	}
	for _, st := range snap.Stations {
		if st.Utilization < 0 || st.Utilization > 1 {
			return fmt.Errorf("dense: %s utilization %v outside [0, 1]", st.Name, st.Utilization)
		}
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if d.snapshot == nil {
		d.executed, d.snapshot = w.Sched.Executed(), raw
		return nil
	}
	if w.Sched.Executed() != d.executed || !bytes.Equal(raw, d.snapshot) {
		return fmt.Errorf("dense: seed %d reran to %d events and a different snapshot (first run: %d events)",
			d.seed, w.Sched.Executed(), d.executed)
	}
	return nil
}
