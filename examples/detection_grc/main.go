// detection_grc demonstrates the full GRC countermeasure (Section VII)
// against all three misbehaviors: NAV clamping, RSSI-based spoofed-ACK
// rejection, and probing-based fake-ACK detection.
package main

import (
	"fmt"
	"log"

	"greedy80211/internal/core"
	"greedy80211/internal/detect"
	"greedy80211/internal/greedy"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

func main() {
	demoNAV()
	demoSpoof()
	demoFakeACK()
}

// demoNAV: misbehavior 1 vs the NAV guard.
func demoNAV() {
	run := func(grc bool) core.Result {
		res, err := core.Run(core.Config{
			Seed: 1, Runs: 3, Duration: 4 * sim.Second,
			Misbehavior:  core.MisbehaviorNAVInflation,
			NAVInflation: 31 * sim.Millisecond,
			NAVFrames:    greedy.CTSOnly,
			EnableGRC:    grc,
		})
		if err != nil {
			log.Fatalf("detection_grc: %v", err)
		}
		return res
	}
	att, def := run(false), run(true)
	fmt.Println("[1] NAV inflation (+31 ms on CTS):")
	fmt.Printf("    without GRC: normal %.2f / greedy %.2f Mbps\n",
		att.Goodput.NormalMbps, att.Goodput.GreedyMbps)
	fmt.Printf("    with GRC:    normal %.2f / greedy %.2f Mbps (%.0f NAVs clamped/run)\n",
		def.Goodput.NormalMbps, def.Goodput.GreedyMbps, def.GRC.NAVCorrections)
}

// demoSpoof: misbehavior 2 vs the RSSI median check.
func demoSpoof() {
	run := func(grc bool) core.Result {
		res, err := core.Run(core.Config{
			Seed: 2, Runs: 3, Duration: 4 * sim.Second,
			Transport:   scenario.TCP,
			Misbehavior: core.MisbehaviorACKSpoofing,
			BER:         4.4e-4,
			EnableGRC:   grc,
		})
		if err != nil {
			log.Fatalf("detection_grc: %v", err)
		}
		return res
	}
	att, def := run(false), run(true)
	fmt.Println("[2] ACK spoofing (TCP, BER 4.4e-4):")
	fmt.Printf("    without GRC: victim %.2f / attacker %.2f Mbps\n",
		att.Goodput.NormalMbps, att.Goodput.GreedyMbps)
	fmt.Printf("    with GRC:    victim %.2f / attacker %.2f Mbps (%.0f spoofed ACKs ignored/run)\n",
		def.Goodput.NormalMbps, def.Goodput.GreedyMbps, def.GRC.SpoofsIgnored)
}

// demoFakeACK: misbehavior 3 vs the probing loss-consistency check.
func demoFakeACK() {
	run := func(fake bool) (macLoss, appLoss float64) {
		var receiver scenario.StationSpec
		if fake {
			receiver.Policy = scenario.PolicySpec{Name: scenario.PolicyFakeACKs}
		}
		w, err := scenario.BuildPairs(scenario.PairsConfig{
			Config:        scenario.Config{Seed: 3, UseRTSCTS: true, Error: phys.BERSpec(8e-4)},
			N:             1,
			Transport:     scenario.UDP,
			CBRRateBps:    5e5,
			ReceiverSpecs: []scenario.StationSpec{receiver},
		})
		if err != nil {
			log.Fatalf("detection_grc: %v", err)
		}
		probe, err := w.AddProbeFlow(99, scenario.SenderName(0), scenario.ReceiverName(0),
			20*sim.Millisecond)
		if err != nil {
			log.Fatalf("detection_grc: %v", err)
		}
		w.Run(8 * sim.Second)
		s, _ := w.Station(scenario.SenderName(0))
		c := s.DCF.Counters()
		return float64(c.ACKTimeouts) / float64(c.DataSent), probe.Prober.AppLoss()
	}
	det := detect.NewFakeACKDetector(phys.Params80211B().LongRetryLimit, 0.02)
	fmt.Println("[3] fake ACKs (UDP, BER 8e-4), probing detector:")
	for _, tc := range []struct {
		name string
		fake bool
	}{{"honest receiver", false}, {"fake-ACKing receiver", true}} {
		macLoss, appLoss := run(tc.fake)
		fmt.Printf("    %-21s macLoss=%.3f appLoss=%.3f expected≤%.3f detected=%v\n",
			tc.name, macLoss, appLoss, det.ExpectedAppLoss(macLoss)+0.02,
			det.Evaluate(macLoss, appLoss))
	}
}
