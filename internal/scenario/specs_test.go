package scenario

import (
	"encoding/json"
	"strings"
	"testing"

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

		SpoofEmulationVictims: []string{"R1"},
		CWMinCapPeers:         []string{"R2", "R3"},
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
		out.Position == nil || out.Position.X != 12 || out.Channel != 6 ||
		len(out.SpoofEmulationVictims) != 1 || len(out.CWMinCapPeers) != 2 {
		t.Fatalf("round trip = %+v (raw %s)", out, raw)
	}
	for _, key := range []string{`"spoof_emulation_victims"`, `"cwmin_cap_peers"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("encoding %s lacks key %s", raw, key)
		}
	}
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
