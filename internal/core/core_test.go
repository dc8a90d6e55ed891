package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"greedy80211/internal/greedy"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

// fast trims a config for test runtime.
func fast(cfg Config) Config {
	cfg.Runs = 2
	cfg.Duration = 2 * sim.Second
	return cfg
}

func TestMisbehaviorString(t *testing.T) {
	tests := []struct {
		m    Misbehavior
		want string
	}{
		{MisbehaviorNone, "none"},
		{MisbehaviorNAVInflation, "nav-inflation"},
		{MisbehaviorACKSpoofing, "ack-spoofing"},
		{MisbehaviorFakeACKs, "fake-acks"},
		{Misbehavior(42), "Misbehavior(42)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"greedy exceeds pairs", func(c *Config) {
			c.Misbehavior = MisbehaviorNAVInflation
			c.GreedyReceivers = 5
			c.Pairs = 2
		}},
		{"bad GP", func(c *Config) { c.GreedyPercent = 150 }},
		{"hidden with shared AP", func(c *Config) {
			c.HiddenTerminals = true
			c.SharedAP = true
		}},
		{"fake acks without loss", func(c *Config) { c.Misbehavior = MisbehaviorFakeACKs }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fast(Config{})
			tt.mut(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestBaselineFairness(t *testing.T) {
	res, err := Run(fast(Config{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %+v", res.Flows)
	}
	for _, f := range res.Flows {
		if f.Greedy {
			t.Error("baseline flow marked greedy")
		}
		if f.GoodputMbps < 1.0 {
			t.Errorf("flow %d goodput %.2f too low", f.ID, f.GoodputMbps)
		}
	}
	if res.Goodput.GreedyMbps != 0 {
		t.Error("greedy average nonzero without misbehavior")
	}
}

func TestPoolReportWiring(t *testing.T) {
	rep := new(scenario.PoolReport)
	cfg := fast(Config{Seed: 1})
	cfg.Pools = rep
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := rep.Worlds(); got != cfg.Runs {
		t.Errorf("pool report folded %d worlds, want %d", got, cfg.Runs)
	}
	s := rep.String()
	for _, want := range []string{"frames", "packets", "arrivals", "events"} {
		if !strings.Contains(s, want) {
			t.Errorf("pool report missing %q:\n%s", want, s)
		}
	}
}

func TestNAVInflationEndToEnd(t *testing.T) {
	res, err := Run(fast(Config{
		Seed:        2,
		Misbehavior: MisbehaviorNAVInflation,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput.GreedyMbps < 3*res.Goodput.NormalMbps {
		t.Errorf("greedy %.2f vs normal %.2f: 10ms inflation should dominate",
			res.Goodput.GreedyMbps, res.Goodput.NormalMbps)
	}
	var sawGreedy bool
	for _, f := range res.Flows {
		if f.Greedy {
			sawGreedy = true
		}
	}
	if !sawGreedy {
		t.Error("no flow marked greedy")
	}
}

func TestNAVInflationWithGRC(t *testing.T) {
	res, err := Run(fast(Config{
		Seed:        3,
		Misbehavior: MisbehaviorNAVInflation,
		NAVFrames:   greedy.CTSOnly,
		EnableGRC:   true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.GRC.NAVCorrections == 0 {
		t.Error("GRC never corrected a NAV")
	}
	if res.Goodput.NormalMbps < res.Goodput.GreedyMbps*0.5 {
		t.Errorf("GRC left %.2f vs %.2f", res.Goodput.NormalMbps, res.Goodput.GreedyMbps)
	}
}

func TestSpoofingEndToEnd(t *testing.T) {
	res, err := Run(fast(Config{
		Seed:        4,
		Transport:   scenario.TCP,
		Misbehavior: MisbehaviorACKSpoofing,
		BER:         2e-4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput.GreedyMbps <= res.Goodput.NormalMbps {
		t.Errorf("spoofing gave greedy %.2f ≤ normal %.2f",
			res.Goodput.GreedyMbps, res.Goodput.NormalMbps)
	}
}

func TestFakeACKsHiddenEndToEnd(t *testing.T) {
	res, err := Run(fast(Config{
		Seed:            5,
		Misbehavior:     MisbehaviorFakeACKs,
		HiddenTerminals: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput.GreedyMbps <= res.Goodput.NormalMbps {
		t.Errorf("fake ACKs gave greedy %.2f ≤ normal %.2f",
			res.Goodput.GreedyMbps, res.Goodput.NormalMbps)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, fast(Config{Seed: 1})); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidateExported(t *testing.T) {
	// The zero config is valid after defaulting.
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	bad := Config{GreedyPercent: 150}
	if err := bad.Validate(); err == nil {
		t.Error("GreedyPercent 150 accepted")
	}
}

func TestMetricsOnResult(t *testing.T) {
	res, err := Run(fast(Config{Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m == nil {
		t.Fatal("Result.Metrics nil: telemetry must be always on")
	}
	if m.Runs != 2 {
		t.Errorf("merged snapshot runs = %d, want 2", m.Runs)
	}
	// 2 pairs → 4 stations, every sender with airtime and a sane AvgCW.
	if len(m.Stations) != 4 {
		t.Fatalf("stations = %d, want 4", len(m.Stations))
	}
	var withAirtime int
	for _, st := range m.Stations {
		if st.AirtimeSecs > 0 {
			withAirtime++
		}
	}
	if withAirtime != 4 {
		t.Errorf("%d stations with airtime, want 4 (senders tx data, receivers tx ACKs)", withAirtime)
	}
	if m.ChannelUtilization <= 0 || m.ChannelUtilization > 1.5 {
		t.Errorf("channel utilization = %v", m.ChannelUtilization)
	}
}

func TestSharedAPTopology(t *testing.T) {
	res, err := Run(fast(Config{
		Seed:      6,
		SharedAP:  true,
		Transport: scenario.TCP,
		Pairs:     3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("flows = %d, want 3", len(res.Flows))
	}
}
