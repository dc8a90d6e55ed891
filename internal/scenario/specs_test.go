package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"greedy80211/internal/greedy"
	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// percent is a PolicySpec.GreedyPercent value.
func percent(v float64) *float64 { return &v }

func TestPolicySpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    PolicySpec
		wantErr string // substring; empty = valid
	}{
		{"zero", PolicySpec{}, ""},
		{"nav", PolicySpec{Name: PolicyNAVInflation, NAVInflation: 5 * sim.Millisecond}, ""},
		{"nav frames", PolicySpec{Name: PolicyNAVInflation, Frames: "all"}, ""},
		{"nav frame subset", PolicySpec{Name: PolicyNAVInflation, Frames: "rts"}, ""},
		{"spoof", PolicySpec{Name: PolicyACKSpoofing, Victims: []string{"R1"}}, ""},
		{"fake", PolicySpec{Name: PolicyFakeACKs, GreedyPercent: percent(50)}, ""},
		{"unknown name", PolicySpec{Name: "bogus"}, "unknown policy"},
		{"params without name", PolicySpec{NAVInflation: sim.Millisecond}, "no policy name"},
		{"zero percent", PolicySpec{Name: PolicyFakeACKs, GreedyPercent: percent(0)}, ""},
		{"negative percent", PolicySpec{Name: PolicyFakeACKs, GreedyPercent: percent(-1)}, "out of [0,100]"},
		{"bad percent", PolicySpec{Name: PolicyFakeACKs, GreedyPercent: percent(101)}, "out of [0,100]"},
		{"bad frames", PolicySpec{Name: PolicyNAVInflation, Frames: "bogus"}, "unknown"},
		{"repeated frame", PolicySpec{Name: PolicyNAVInflation, Frames: "cts+cts"}, "repeats"},
		{"negative nav", PolicySpec{Name: PolicyNAVInflation, NAVInflation: -sim.Millisecond}, "negative"},
		{"nav victims", PolicySpec{Name: PolicyNAVInflation, Victims: []string{"R1"}}, "victims"},
		{"spoof nav knob", PolicySpec{Name: PolicyACKSpoofing, NAVInflation: sim.Millisecond}, "NAV"},
		{"fake extra knob", PolicySpec{Name: PolicyFakeACKs, Frames: "ack"}, "greedy percentage"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestStationSpecJSONRoundTrip(t *testing.T) {
	in := StationSpec{
		Policy:   PolicySpec{Name: PolicyACKSpoofing, GreedyPercent: percent(30), Victims: []string{"R1", "R2"}},
		ARF:      true,
		QueueCap: 64,
		Position: &phys.Position{X: 12, Y: 7},
		Channel:  6,
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out StationSpec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Policy.Name != PolicyACKSpoofing || out.Policy.GreedyPercent == nil || *out.Policy.GreedyPercent != 30 ||
		len(out.Policy.Victims) != 2 || !out.ARF || out.QueueCap != 64 ||
		out.Position == nil || out.Position.X != 12 || out.Channel != 6 {
		t.Fatalf("round trip = %+v (raw %s)", out, raw)
	}
}

// TestStationSpecMatchesStationOpts: a spec-built world is identical to
// the same world built through AddStation with explicit StationOpts — the
// spec path is a pure data encoding of the same construction order and
// RNG draws.
func TestStationSpecMatchesStationOpts(t *testing.T) {
	const d = 500 * sim.Millisecond
	goodputs := func(w *World) []float64 {
		t.Helper()
		w.Run(d)
		var out []float64
		for _, fl := range w.Flows() {
			out = append(out, fl.GoodputMbps(d))
		}
		return out
	}
	base := Config{Seed: 11, UseRTSCTS: true, Error: marginalLadder()}
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var opts StationOpts
		if i == 2 {
			opts.Policy = greedy.NewNAVInflation(w.Sched.RNG(), greedy.CTSAndACK, 10*sim.Millisecond, 100)
		}
		if _, err := w.AddStation(ReceiverName(i), phys.Position{X: 5, Y: float64(i) * 30}, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		opts := StationOpts{AutoRate: mac.NewARF(mac.Rates80211B(), 0, 0)}
		if _, err := w.AddStation(SenderName(i), phys.Position{Y: float64(i) * 30}, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AddUDPFlow(i+1, SenderName(i), ReceiverName(i), DefaultCBRRateBps, DefaultPayloadBytes); err != nil {
			t.Fatal(err)
		}
	}
	direct := goodputs(w)
	ws, err := BuildPairs(PairsConfig{Config: base, N: 3, Transport: UDP,
		ReceiverSpecs: []StationSpec{{}, {}, {Policy: PolicySpec{Name: PolicyNAVInflation}}},
		SenderSpecs:   []StationSpec{{ARF: true}, {ARF: true}, {ARF: true}}})
	if err != nil {
		t.Fatal(err)
	}
	spec := goodputs(ws)
	if len(direct) != len(spec) {
		t.Fatalf("flow counts differ: %d vs %d", len(direct), len(spec))
	}
	for i := range direct {
		if direct[i] != spec[i] {
			t.Fatalf("flow %d: StationOpts %v != spec %v", i+1, direct[i], spec[i])
		}
	}
}

// marginalLadder is a rate-dependent channel on which ARF has to move.
func marginalLadder() phys.ErrorSpec {
	return phys.RateLadderSpec(map[int64]float64{5_500_000: 0.15, 11_000_000: 0.7}, 200)
}

func TestStationSpecErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*World, error)
		wantErr string
	}{
		{"missing victim", func() (*World, error) {
			return BuildPairs(PairsConfig{Config: Config{Seed: 1}, N: 1, Transport: UDP,
				ReceiverSpecs: []StationSpec{{Policy: PolicySpec{Name: PolicyACKSpoofing, Victims: []string{"nope"}}}}})
		}, "not added"},
		{"negative queue cap", func() (*World, error) {
			return BuildPairs(PairsConfig{Config: Config{Seed: 1}, N: 1, Transport: UDP,
				SenderSpecs: []StationSpec{{QueueCap: -1}}})
		}, "QueueCap"},
		{"negative nav", func() (*World, error) {
			return BuildPairs(PairsConfig{Config: Config{Seed: 1}, N: 1, Transport: UDP,
				ReceiverSpecs: []StationSpec{{Policy: PolicySpec{Name: PolicyNAVInflation, NAVInflation: -1}}}})
		}, "negative"},
		{"pairs receiver specs past N", func() (*World, error) {
			return BuildPairs(PairsConfig{Config: Config{Seed: 1}, N: 1, Transport: UDP,
				ReceiverSpecs: make([]StationSpec, 2)})
		}, "2 receiver specs for 1 receivers"},
		{"pairs sender specs past N", func() (*World, error) {
			return BuildPairs(PairsConfig{Config: Config{Seed: 1}, N: 2, Transport: UDP,
				SenderSpecs: make([]StationSpec, 3)})
		}, "3 sender specs for 2 senders"},
		{"shared AP specs past N", func() (*World, error) {
			return BuildSharedAP(SharedAPConfig{Config: Config{Seed: 1}, N: 2, Transport: UDP,
				ReceiverSpecs: make([]StationSpec, 3)})
		}, "3 receiver specs"},
		{"hidden pairs specs past two", func() (*World, error) {
			return BuildHiddenPairs(HiddenPairsConfig{Config: Config{Seed: 1},
				ReceiverSpecs: make([]StationSpec, 3)})
		}, "3 receiver specs"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("err = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestStationSpecPositionOverride: a spec's Position replaces the
// builder's default placement.
func TestStationSpecPositionOverride(t *testing.T) {
	w, err := BuildPairs(PairsConfig{Config: Config{Seed: 1}, N: 1, Transport: UDP,
		ReceiverSpecs: []StationSpec{{Position: &phys.Position{X: 40, Y: 9}}}})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := w.Station(ReceiverName(0))
	if !ok {
		t.Fatal("R1 missing")
	}
	pos, ok := w.Medium.Position(st.ID)
	if !ok || pos.X != 40 || pos.Y != 9 {
		t.Fatalf("R1 at %+v, want the spec's override", pos)
	}
}
