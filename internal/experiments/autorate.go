package experiments

import (
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/stats"
)

// The auto-rate experiments implement the paper's Section IX future work:
// how rate adaptation (ARF) interacts with the feedback-forging
// misbehaviors. Fake ACKs hide failures from ARF, so the greedy flow's
// sender climbs to rates the channel cannot sustain; spoofed ACKs do the
// same to the victim's sender.

func registerAutoRate() {
	register("exta", "Extension: fake ACKs under ARF auto-rate vs fixed rate (UDP)", "§IX extension", runExtA)
	register("extb", "Extension: spoofed ACKs under ARF auto-rate vs fixed rate (TCP)", "§IX extension", runExtB)
}

// marginalLadderFER models a link whose SNR supports 1–2 Mbps cleanly,
// 5.5 Mbps marginally, and 11 Mbps badly.
func marginalLadderFER() phys.ErrorSpec {
	return phys.RateLadderSpec(map[int64]float64{
		1_000_000:  0,
		2_000_000:  0.01,
		5_500_000:  0.15,
		11_000_000: 0.70,
	}, 200) // control frames (basic rate, short) always pass
}

// autoratePairs builds 2 pairs on a marginal link; senders optionally run
// ARF, and the last receiver runs policy (zero: compliant).
func autoratePairs(seed int64, tr scenario.Transport, useARF bool,
	policy scenario.PolicySpec) (*scenario.World, error) {
	arf := scenario.StationSpec{ARF: useARF}
	capture := scenario.CaptureThreshold
	if tr == scenario.TCP {
		capture = scenario.CaptureStrongest // spoofing study keeps the paper's capture assumption
	}
	return scenario.BuildPairs(scenario.PairsConfig{
		Config: scenario.Config{
			Seed:      seed,
			UseRTSCTS: true,
			Error:     marginalLadderFER(),
			Capture:   capture,
		},
		N:             2,
		Transport:     tr,
		SenderSpecs:   []scenario.StationSpec{arf, arf},
		ReceiverSpecs: lastGreedy(2, 1, policy),
	})
}

func runExtA(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "exta", Title: "Fake ACKs × auto-rate: forged feedback pins ARF at unsustainable rates"}
	t := stats.Table{
		Title: "Marginal link (11 Mbps FER 0.7, 5.5 Mbps FER 0.15). Under ARF, fake ACKs stop " +
			"the sender from downshifting, reducing the attack's benefit (Section IX).",
		Header: []string{"rate_control", "case", "R1_mbps", "R2_mbps"},
	}
	type rowCase struct {
		rcName, tcName string
		arf, fake      bool
	}
	var cases []rowCase
	for _, rc := range []struct {
		name string
		arf  bool
	}{{"fixed 11 Mbps", false}, {"ARF", true}} {
		for _, tc := range []struct {
			name string
			fake bool
		}{{"no GR", false}, {"R2 fakes ACKs", true}} {
			cases = append(cases, rowCase{rc.name, tc.name, rc.arf, tc.fake})
		}
	}
	rows, err := sweep(cases, func(c rowCase) (map[int]float64, error) {
		var policy scenario.PolicySpec
		if c.fake {
			policy = fakePolicy(100)
		}
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return autoratePairs(seed, scenario.UDP, c.arf, policy)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		t.AddRow(c.rcName, c.tcName, rows[i][1], rows[i][2])
	}
	res.AddTable(t)
	return res, nil
}

func runExtB(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "extb", Title: "Spoofed ACKs × auto-rate: the victim's sender is kept at a bad rate"}
	t := stats.Table{
		Title: "Spoofed ACKs hide the victim's losses from its sender's ARF, so it never " +
			"downshifts — increasing the damage (Section IX).",
		Header: []string{"rate_control", "case", "NR_mbps", "GR_mbps"},
	}
	type rowCase struct {
		rcName, tcName string
		arf, spoof     bool
	}
	var cases []rowCase
	for _, rc := range []struct {
		name string
		arf  bool
	}{{"fixed 11 Mbps", false}, {"ARF", true}} {
		for _, tc := range []struct {
			name  string
			spoof bool
		}{{"no GR", false}, {"R2 spoofs for R1", true}} {
			cases = append(cases, rowCase{rc.name, tc.name, rc.arf, tc.spoof})
		}
	}
	rows, err := sweep(cases, func(c rowCase) (map[int]float64, error) {
		var policy scenario.PolicySpec
		if c.spoof {
			policy = spoofForR1
		}
		flows, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return autoratePairs(seed, scenario.TCP, c.arf, policy)
		}, nil)
		return flows, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		t.AddRow(c.rcName, c.tcName, rows[i][1], rows[i][2])
	}
	res.AddTable(t)
	return res, nil
}
