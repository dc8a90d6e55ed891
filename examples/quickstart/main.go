// Quickstart: a two-flow 802.11b hotspot where one receiver inflates its
// CTS/ACK NAV, with and without the GRC countermeasure. This is the
// paper's headline result in ~60 lines: station specs describe the
// world, and the experiments seed loop runs it and takes medians.
package main

import (
	"fmt"
	"log"

	"greedy80211/internal/detect"
	"greedy80211/internal/experiments"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

// run plays three seeds of the two-pair world, receiver R2 inflating the
// NAV by 10 ms, and returns the normal and greedy flows' median goodput
// and the median NAV corrections per run.
func run(grc bool) (normal, greedy, corrections float64) {
	var guard *detect.Config
	if grc {
		c := detect.DefaultConfig()
		guard = &c
	}
	recv := []scenario.StationSpec{{GRC: guard}, {GRC: guard, Policy: scenario.PolicySpec{
		Name: scenario.PolicyNAVInflation, NAVInflation: 10 * sim.Millisecond,
	}}}
	send := []scenario.StationSpec{{GRC: guard}, {GRC: guard}}
	cfg := experiments.RunConfig{Seeds: 3, Duration: 4 * sim.Second}
	flows, counts, err := experiments.RunSeeds(cfg, func(seed int64) (*scenario.World, error) {
		return scenario.BuildPairs(scenario.PairsConfig{
			Config: scenario.Config{Seed: seed, UseRTSCTS: true},
			N:      2, Transport: scenario.UDP, ReceiverSpecs: recv, SenderSpecs: send,
		})
	}, func(w *scenario.World, m map[string]float64) {
		for _, name := range []string{"S1", "R1", "S2", "R2"} {
			if st, _ := w.Station(name); st.GRC != nil {
				m["nav"] += float64(st.GRC.Stats().NAVClamped)
			}
		}
	})
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
	return flows[1], flows[2], counts["nav"]
}

func main() {
	attNormal, attGreedy, _ := run(false)
	defNormal, defGreedy, corrections := run(true)

	fmt.Println("Greedy receiver inflating CTS/ACK NAV by 10 ms (802.11b, UDP):")
	fmt.Printf("  unprotected: greedy %.2f Mbps, normal %.2f Mbps\n", attGreedy, attNormal)
	fmt.Printf("  with GRC:    greedy %.2f Mbps, normal %.2f Mbps"+
		" (%.0f NAV corrections per run)\n", defGreedy, defNormal, corrections)

	if attNormal < 0.2 && defNormal > 1.0 {
		fmt.Println("  -> the attack starves the normal flow; GRC restores fairness.")
	}
}
