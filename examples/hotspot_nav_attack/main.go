// hotspot_nav_attack sweeps NAV-inflation amount and frame set over two
// competing TCP flows (the paper's Fig 4), using the scenario API directly
// for full control over policies and counters.
package main

import (
	"fmt"
	"log"

	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
)

func main() {
	frameSets := []struct {
		name, frames string
	}{
		{"CTS", "cts"},
		{"RTS+CTS", "rts+cts"},
		{"ACK", "ack"},
		{"all frames", "all"},
	}
	inflationsMs := []float64{0, 2, 5, 10, 31}

	for _, fsp := range frameSets {
		nr := stats.Series{Name: "normal (Mbps)"}
		gr := stats.Series{Name: "greedy (Mbps)"}
		for _, ms := range inflationsMs {
			// R2 inflates; zero inflation is the compliant baseline (a
			// PolicySpec would read 0 as its 10 ms default).
			specs := []scenario.StationSpec{{}, {}}
			if ms > 0 {
				specs[1].Policy = scenario.PolicySpec{Name: scenario.PolicyNAVInflation,
					NAVInflation: sim.FromSeconds(ms / 1000), Frames: fsp.frames}
			}
			w, err := scenario.BuildPairs(scenario.PairsConfig{
				Config:        scenario.Config{Seed: 42, UseRTSCTS: true},
				N:             2,
				Transport:     scenario.TCP,
				ReceiverSpecs: specs,
			})
			if err != nil {
				log.Fatalf("hotspot_nav_attack: %v", err)
			}
			const d = 4 * sim.Second
			w.Run(d)
			f1, _ := w.Flow(1)
			f2, _ := w.Flow(2)
			nr.Add(ms, f1.GoodputMbps(d))
			gr.Add(ms, f2.GoodputMbps(d))
		}
		fmt.Printf("Inflating NAV on %s frames:\n", fsp.name)
		fmt.Println(stats.FormatSeries("nav_increase_ms", nr, gr))
	}
	fmt.Println("Inflating all frames causes the largest damage; a TCP receiver")
	fmt.Println("also inflates RTS/DATA because its TCP ACKs are MAC data frames.")
}
