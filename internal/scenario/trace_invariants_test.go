package scenario

import (
	"testing"

	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

// runTraced builds a pairs world, attaches a checking flight recorder,
// runs it, and returns the collector plus the world.
func runTraced(t *testing.T, cfg PairsConfig, d sim.Time) (*trace.Collector, *World) {
	t.Helper()
	coll := trace.NewCollector(0)
	w, err := BuildPairs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.AttachTrace(coll.Start(cfg.Seed))
	w.Run(d)
	return coll, w
}

// TestTraceInvariantsCompliantWorld: a by-the-book two-pair hotspot must
// produce a violation-free trace.
func TestTraceInvariantsCompliantWorld(t *testing.T) {
	coll, _ := runTraced(t, PairsConfig{
		Config:    Config{Seed: 11, UseRTSCTS: true},
		N:         2,
		Transport: UDP,
	}, 2*sim.Second)
	if err := trace.Check(coll.Recordings()); err != nil {
		t.Fatalf("compliant world: %v:\n%v", err, err.(*trace.ViolationError).Violations)
	}
}

// TestTraceInvariantsNAVInflationWorld: the fig1 attack — a receiver
// inflating the NAV in its CTS/ACK — silences bystanders without breaking
// any DCF access rule. The checker must stay clean (the attacker bends
// durations, not access timing) while the trace shows the bystanders'
// NAV-blocked intervals, the observable the paper's Figure 1 plots.
func TestTraceInvariantsNAVInflationWorld(t *testing.T) {
	var greedyID int
	coll, w := runTraced(t, PairsConfig{
		Config:        Config{Seed: 12, UseRTSCTS: true},
		N:             2,
		Transport:     UDP,
		ReceiverSpecs: []StationSpec{{Policy: PolicySpec{Name: PolicyNAVInflation}}},
	}, 2*sim.Second)
	if err := trace.Check(coll.Recordings()); err != nil {
		t.Fatalf("NAV-inflation world: %v:\n%v", err, err.(*trace.ViolationError).Violations)
	}
	gr, ok := w.Station(ReceiverName(0))
	if !ok {
		t.Fatal("greedy receiver missing")
	}
	greedyID = int(gr.ID)

	recs := coll.Recordings()
	if len(recs) != 1 {
		t.Fatalf("recordings = %d", len(recs))
	}
	bystanderBlocked := 0
	for _, e := range recs[0].Recorder.Events() {
		if e.Kind == trace.KindNAVBlockedStart && int(e.Station) != greedyID {
			bystanderBlocked++
		}
	}
	if bystanderBlocked == 0 {
		t.Error("no bystander NAVBLK-BEG events; the inflated NAV left no trace")
	}
}

// TestAttachTraceNames: AttachTrace must hand the recorder every station's
// name and the band parameters, so exports are self-describing.
func TestAttachTraceNames(t *testing.T) {
	w, err := BuildPairs(PairsConfig{
		Config:    Config{Seed: 3, UseRTSCTS: true},
		N:         1,
		Transport: UDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(16)
	w.AttachTrace(rec)
	w.Run(100 * sim.Millisecond)
	meta := rec.Meta("x", 3)
	if meta.Timing != trace.TimingFromParams(w.Params) {
		t.Errorf("meta timing = %+v, want the world's band", meta.Timing)
	}
	names := map[string]bool{}
	for _, s := range meta.Stations {
		names[s.Name] = true
	}
	if !names[SenderName(0)] || !names[ReceiverName(0)] {
		t.Errorf("station names = %v, want %s and %s", meta.Stations, SenderName(0), ReceiverName(0))
	}
}
