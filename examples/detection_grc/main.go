// detection_grc demonstrates the full GRC countermeasure (Section VII)
// against all three misbehaviors: NAV clamping, RSSI-based spoofed-ACK
// rejection, and probing-based fake-ACK detection.
package main

import (
	"fmt"
	"log"

	"greedy80211/internal/detect"
	"greedy80211/internal/experiments"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

func main() {
	demoNAV()
	demoSpoof()
	demoFakeACK()
}

// attack plays three 4 s seeds (baseSeed+1 …) of a two-pair world whose
// receiver R2 runs policy, with GRC at every station when grc is set. It
// returns the normal (flow 1) and greedy (flow 2) median goodputs and
// the median NAV corrections and spoofed ACKs ignored per run.
func attack(baseSeed int64, world scenario.Config, tr scenario.Transport,
	policy scenario.PolicySpec, grc bool) (normal, greedy, navClamped, spoofsIgnored float64) {
	var guard *detect.Config
	if grc {
		c := detect.DefaultConfig()
		guard = &c
	}
	recv := []scenario.StationSpec{{GRC: guard}, {GRC: guard, Policy: policy}}
	send := []scenario.StationSpec{{GRC: guard}, {GRC: guard}}
	cfg := experiments.RunConfig{BaseSeed: baseSeed, Seeds: 3, Duration: 4 * sim.Second}
	flows, counts, err := experiments.RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		c := world
		c.Seed = seed
		return scenario.BuildPairs(scenario.PairsConfig{
			Config: c, N: 2, Transport: tr, ReceiverSpecs: recv, SenderSpecs: send,
		})
	}, func(w *scenario.World, m map[string]float64) {
		for _, name := range []string{"S1", "R1", "S2", "R2"} {
			if st, _ := w.Station(name); st.GRC != nil {
				m["nav"] += float64(st.GRC.Stats().NAVClamped)
				m["spoof"] += float64(st.GRC.Stats().SpoofIgnored)
			}
		}
	})
	if err != nil {
		log.Fatalf("detection_grc: %v", err)
	}
	return flows[1], flows[2], counts["nav"], counts["spoof"]
}

// demoNAV: misbehavior 1 vs the NAV guard.
func demoNAV() {
	world := scenario.Config{UseRTSCTS: true}
	policy := scenario.PolicySpec{Name: scenario.PolicyNAVInflation,
		NAVInflation: 31 * sim.Millisecond, Frames: "cts"}
	attNormal, attGreedy, _, _ := attack(0, world, scenario.UDP, policy, false)
	defNormal, defGreedy, clamped, _ := attack(0, world, scenario.UDP, policy, true)
	fmt.Println("[1] NAV inflation (+31 ms on CTS):")
	fmt.Printf("    without GRC: normal %.2f / greedy %.2f Mbps\n", attNormal, attGreedy)
	fmt.Printf("    with GRC:    normal %.2f / greedy %.2f Mbps (%.0f NAVs clamped/run)\n",
		defNormal, defGreedy, clamped)
}

// demoSpoof: misbehavior 2 vs the RSSI median check.
func demoSpoof() {
	world := scenario.Config{UseRTSCTS: true, Capture: scenario.CaptureStrongest, Error: phys.BERSpec(4.4e-4)}
	policy := scenario.PolicySpec{Name: scenario.PolicyACKSpoofing,
		Victims: []string{scenario.ReceiverName(0)}}
	attVictim, attAttacker, _, _ := attack(1, world, scenario.TCP, policy, false)
	defVictim, defAttacker, _, ignored := attack(1, world, scenario.TCP, policy, true)
	fmt.Println("[2] ACK spoofing (TCP, BER 4.4e-4):")
	fmt.Printf("    without GRC: victim %.2f / attacker %.2f Mbps\n", attVictim, attAttacker)
	fmt.Printf("    with GRC:    victim %.2f / attacker %.2f Mbps (%.0f spoofed ACKs ignored/run)\n",
		defVictim, defAttacker, ignored)
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
