package experiments

import (
	"greedy80211/internal/detect"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/stats"
)

func registerBaseline() {
	register("extc", "Extension: DOMINO (sender-side detector) is blind to receiver misbehavior", "§II extension", runExtC)
}

// runExtC pits the paper's three misbehaviors against a DOMINO backoff
// monitor: the attacks succeed while every sender looks compliant — the
// motivating observation of the paper. GRC's detections on the same runs
// are shown for contrast.
func runExtC(cfg RunConfig) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{ID: "extc", Title: "DOMINO vs receiver misbehaviors: compliant senders, skewed goodput"}
	t := stats.Table{
		Title: "DOMINO flags senders whose observed average backoff is below half the nominal " +
			"CWmin/2; greedy receivers never alter their senders' backoff, so the attacks run " +
			"unflagged (GRC catches them instead: fig23, fig24, extc's companion runs).",
		Header: []string{"misbehavior", "NR_mbps", "GR_mbps", "domino_flagged",
			"GS_avg_backoff_slots"},
	}
	type extcCase struct {
		name  string
		build func(seed int64) (*scenario.World, error)
	}
	cases := []extcCase{
		{"nav-inflation +10ms CTS", func(seed int64) (*scenario.World, error) {
			return scenario.BuildPairs(scenario.PairsConfig{
				Config:    scenario.Config{Seed: seed, UseRTSCTS: true},
				N:         2,
				Transport: scenario.UDP,
				ReceiverSpecs: lastGreedy(2, 1,
					scenario.PolicySpec{Name: scenario.PolicyNAVInflation, Frames: "cts"}),
			})
		}},
		{"ack-spoofing BER 2e-4", func(seed int64) (*scenario.World, error) {
			return scenario.BuildPairs(scenario.PairsConfig{
				Config: scenario.Config{
					Seed: seed, UseRTSCTS: true, Error: phys.BERSpec(2e-4),
					ForceCapture: true,
				},
				N:             2,
				Transport:     scenario.TCP,
				ReceiverSpecs: lastGreedy(2, 1, spoofForR1),
			})
		}},
		{"fake-acks hidden terminals", func(seed int64) (*scenario.World, error) {
			return scenario.BuildHiddenPairs(scenario.HiddenPairsConfig{
				Config:        scenario.Config{Seed: seed},
				ReceiverSpecs: lastGreedy(2, 1, fakePolicy(100)),
			})
		}},
	}
	type caseResult struct {
		f1, f2, gsBackoff float64
		flagged           string
	}
	rows, err := sweep(cases, func(tc extcCase) (caseResult, error) {
		// One representative seeded run per misbehavior (the verdicts are
		// counters, not medians). Each case gets its own Domino monitor,
		// so cases are independent and run concurrently.
		dom := detect.NewDomino(phys.Params80211B(), 0.5, 20)
		seed := cfg.BaseSeed + 1
		w, err := tc.build(seed)
		if err != nil {
			return caseResult{}, err
		}
		// The Domino monitor is the world's first tap; the flight recorder
		// (if any) joins as a second.
		w.Medium.AddTap(dom)
		if cfg.Trace != nil {
			rec := cfg.Trace.Start(seed)
			w.AttachTrace(rec, rec)
		}
		w.Run(cfg.Duration)
		f1, _ := w.Flow(1)
		f2, _ := w.Flow(2)
		gs, _ := w.Station(scenario.SenderName(1))
		r := caseResult{
			f1:      f1.GoodputMbps(cfg.Duration),
			f2:      f2.GoodputMbps(cfg.Duration),
			flagged: "no",
		}
		for _, v := range dom.Verdicts() {
			if v.Station == gs.ID {
				r.gsBackoff = v.AvgBackoff
			}
		}
		if dom.AnyCheater() {
			r.flagged = "YES"
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range cases {
		t.AddRow(tc.name, rows[i].f1, rows[i].f2, rows[i].flagged, rows[i].gsBackoff)
	}
	res.AddTable(t)
	return res, nil
}
