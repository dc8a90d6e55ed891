package experiments

import (
	"greedy80211/internal/greedy"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/stats"
)

// The testbed experiments (Section VI) ran on four MadWiFi 802.11a nodes
// at a fixed 6 Mbps. We mirror them in simulation with the same knobs the
// paper used: direct NAV inflation where MadWiFi allows it, and the
// documented emulations (disable-retransmission, CWmax=CWmin) where the
// paper emulated too (see DESIGN.md §2).

func registerTestbed() {
	register("tab6", "Testbed mirror: TCP goodput with NAV inflated on RTS of TCP ACKs (802.11a)", "Table VI (§VI)", runTab6)
	register("tab7", "Testbed mirror: UDP goodput with inflated ACK/CTS NAV (802.11a)", "Table VII (§VI)", runTab7)
	register("tab8", "Testbed mirror: spoof-ACK emulation via disabled retransmissions (TCP)", "Table VIII (§VI)", runTab8)
	register("tab9", "Testbed mirror: fake-ACK emulation via CWmax=CWmin (UDP)", "Table IX (§VI)", runTab9)
}

// testbedPairs builds the 2-pair 802.11a world the testbed used, with the
// second receiver optionally greedy.
func testbedPairs(seed int64, tr scenario.Transport, useRTS bool,
	set greedy.FrameSet, greedyOn bool) (*scenario.World, error) {
	var nav scenario.PolicySpec
	if greedyOn {
		nav = scenario.PolicySpec{Name: scenario.PolicyNAVInflation,
			NAVInflation: phys.MaxNAV(), Frames: set.String()}
	}
	return scenario.BuildPairs(scenario.PairsConfig{
		Config:        scenario.Config{Seed: seed, Band: phys.Band80211A, UseRTSCTS: useRTS},
		N:             2,
		Transport:     tr,
		ReceiverSpecs: lastGreedy(2, 1, nav),
	})
}

func runTab6(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab6", Title: "TCP goodput when GR inflates NAV on RTS for TCP ACKs (max 32767 µs)"}
	t := stats.Table{
		Title:  "Paper testbed: no GR 2.28/2.51 Mbps; with GR 4.41 vs 0.04 Mbps.",
		Header: []string{"case", "R1_mbps", "R2_mbps"},
	}
	set := greedy.FrameSet{RTS: true}
	base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return testbedPairs(seed, scenario.TCP, true, set, false)
	}, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("no GR", base[1], base[2])
	att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return testbedPairs(seed, scenario.TCP, true, set, true)
	}, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("R2 inflates RTS NAV", att[1], att[2])
	res.AddTable(t)
	return res, nil
}

func runTab7(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab7", Title: "UDP goodput when GR inflates control-frame NAV (max 32767 µs)"}
	t := stats.Table{
		Title:  "Paper testbed rows: ACK-only (no RTS/CTS), CTS (RTS/CTS on), CTS+ACK (RTS/CTS on).",
		Header: []string{"case", "noGR_R1", "noGR_R2", "GR_R1", "GR_R2(GR)"},
	}
	rows := []struct {
		name   string
		useRTS bool
		set    greedy.FrameSet
	}{
		{"no RTS/CTS, inflated ACK NAV", false, greedy.ACKOnly},
		{"RTS/CTS, inflated CTS NAV", true, greedy.CTSOnly},
		{"RTS/CTS, inflated CTS+ACK NAV", true, greedy.CTSAndACK},
	}
	if cfg.Quick {
		rows = rows[:1]
	}
	for _, row := range rows {
		base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return testbedPairs(seed, scenario.UDP, row.useRTS, row.set, false)
		}, nil)
		if err != nil {
			return nil, err
		}
		att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
			return testbedPairs(seed, scenario.UDP, row.useRTS, row.set, true)
		}, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.name, base[1], base[2], att[1], att[2])
	}
	res.AddTable(t)
	return res, nil
}

// sharedAPEmulation builds the testbed's one-sender-two-receivers world
// with an emulation knob on the sender. The real testbed channel was far
// from loss-free — the paper's own Table I capture on the same hardware
// shows ~32% of 802.11a frames corrupted — so we inject a BER that
// produces a comparable data frame error rate, keeping the backoff
// machinery engaged as it was there (tab9); the TCP spoof emulation uses
// a milder BER so the victim's connection survives as it did on the
// testbed (tab8).
func sharedAPEmulation(seed int64, ber float64, tr scenario.Transport,
	sender scenario.StationSpec) (*scenario.World, error) {
	return scenario.BuildSharedAP(scenario.SharedAPConfig{
		Config:    scenario.Config{Seed: seed, Band: phys.Band80211A, Error: phys.BERSpec(ber)},
		N:         2,
		Transport: tr,
		// The testbed's R2 sits at (5,5), not the builder's (5,3).
		ReceiverSpecs: []scenario.StationSpec{{}, {Position: &phys.Position{X: 5, Y: 5}}},
		SenderSpec:    sender,
	})
}

func runTab8(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab8", Title: "Spoof-ACK emulation: sender disables MAC retransmission toward NR (TCP)"}
	t := stats.Table{
		Title:  "Paper testbed: no GR 2.68/1.96 Mbps; with GR 3.51 (GR) vs 0.98 (NR).",
		Header: []string{"case", "R1_mbps", "R2_mbps"},
	}
	base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return sharedAPEmulation(seed, 2e-4, scenario.TCP, scenario.StationSpec{})
	}, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("no GR", base[1], base[2])
	att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return sharedAPEmulation(seed, 2e-4, scenario.TCP,
			scenario.StationSpec{SpoofEmulationVictims: []string{"R1"}})
	}, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("R2 GR (no MAC rtx to R1)", att[1], att[2])
	res.AddTable(t)
	return res, nil
}

func runTab9(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "tab9", Title: "Fake-ACK emulation: sender CW pinned at CWmin toward GR (UDP)"}
	t := stats.Table{
		Title:  "Paper testbed: no GR 2.08/2.99 Mbps; with GR 2.79 (GR) vs 2.35 (NR).",
		Header: []string{"case", "R1_mbps", "R2_mbps"},
	}
	base, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return sharedAPEmulation(seed, 8e-4, scenario.UDP, scenario.StationSpec{})
	}, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("no GR", base[1], base[2])
	att, _, err := RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return sharedAPEmulation(seed, 8e-4, scenario.UDP,
			scenario.StationSpec{CWMinCapPeers: []string{"R2"}})
	}, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("R2 GR (CWmax=CWmin to R2)", att[1], att[2])
	res.AddTable(t)
	return res, nil
}
