// ack_spoofing_wan reproduces the paper's most damaging ACK-spoofing
// setting (Fig 15/16): TCP senders at a remote site reach hotspot clients
// through a wired backhaul, and a greedy client spoofs MAC-layer ACKs on
// behalf of its neighbor. Every suppressed MAC retransmission then costs
// the victim a full WAN round trip of end-to-end recovery.
package main

import (
	"fmt"
	"log"

	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/transport"
	"greedy80211/internal/wireline"
)

func buildWorld(seed int64, wiredDelay sim.Time, spoof bool) (*scenario.World, error) {
	w, err := scenario.NewWorld(scenario.Config{
		Seed:      seed,
		UseRTSCTS: true,
		Error:     phys.BERSpec(2e-5), // the paper's wireless loss for this study
		Capture:   scenario.CaptureStrongest,
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.AddStation("victim", phys.Position{X: 5}, scenario.StationSpec{}); err != nil {
		return nil, err
	}
	var attacker scenario.StationSpec
	if spoof {
		attacker.Policy = scenario.PolicySpec{Name: scenario.PolicyACKSpoofing, Victims: []string{"victim"}}
	}
	if _, err := w.AddStation("attacker", phys.Position{X: 5, Y: 5}, attacker); err != nil {
		return nil, err
	}
	if _, err := w.AddStation("AP", phys.Position{}, scenario.StationSpec{}); err != nil {
		return nil, err
	}
	for i, host := range []string{"server1", "server2"} {
		if _, err := w.AddWiredHost(host); err != nil {
			return nil, err
		}
		if err := w.ConnectWired(host, "AP", wireline.Config{
			Delay: wiredDelay, RateBps: 100e6,
		}); err != nil {
			return nil, err
		}
		rx := []string{"victim", "attacker"}[i]
		if _, err := w.AddTCPFlow(i+1, host, rx, transport.DefaultTCPConfig(i+1)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func main() {
	victim := stats.Series{Name: "victim (Mbps)"}
	attacker := stats.Series{Name: "attacker (Mbps)"}
	victimBase := stats.Series{Name: "victim w/o attack (Mbps)"}

	for _, ms := range []float64{2, 50, 100, 200, 400} {
		delay := sim.FromSeconds(ms / 1000)
		const d = 6 * sim.Second

		base, err := buildWorld(7, delay, false)
		if err != nil {
			log.Fatalf("ack_spoofing_wan: %v", err)
		}
		base.Run(d)
		b1, _ := base.Flow(1)
		victimBase.Add(ms, b1.GoodputMbps(d))

		att, err := buildWorld(7, delay, true)
		if err != nil {
			log.Fatalf("ack_spoofing_wan: %v", err)
		}
		att.Run(d)
		a1, _ := att.Flow(1)
		a2, _ := att.Flow(2)
		victim.Add(ms, a1.GoodputMbps(d))
		attacker.Add(ms, a2.GoodputMbps(d))

		gr, _ := att.Station("attacker")
		fmt.Printf("wired delay %3.0f ms: attacker forged %d MAC ACKs\n",
			ms, gr.DCF.Counters().SpoofedACKsSent)
	}

	fmt.Println()
	fmt.Println(stats.FormatSeries("wired_latency_ms", victimBase, victim, attacker))
	fmt.Println("The damage grows with wireline latency: each spoof-suppressed MAC")
	fmt.Println("retransmission becomes an end-to-end TCP recovery over the WAN.")
}
