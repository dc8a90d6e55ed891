// airtime_forensics shows how to *see* a greedy receiver at work: a
// channel-tap recorder accounts per-station airtime while a DOMINO-style
// sender-side monitor (the prior art the paper argues against) watches
// backoff compliance. The NAV-inflating receiver's sender ends up owning
// the channel — with every sender contending perfectly normally, which is
// exactly why sender-side detection cannot catch receiver misbehavior.
package main

import (
	"fmt"
	"log"

	"greedy80211/internal/detect"
	"greedy80211/internal/mac"
	"greedy80211/internal/medium"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

// fanoutTap duplicates channel events to several taps.
type fanoutTap []medium.Tap

func (f fanoutTap) OnTransmit(src mac.NodeID, fr *mac.Frame, start, airtime sim.Time) {
	for _, t := range f {
		t.OnTransmit(src, fr, start, airtime)
	}
}

func (f fanoutTap) OnReceive(dst mac.NodeID, fr *mac.Frame, info mac.RxInfo, at sim.Time) {
	for _, t := range f {
		t.OnReceive(dst, fr, info, at)
	}
}

func main() {
	rec := trace.NewRecorder(24)
	dom := detect.NewDomino(phys.Params80211B(), 0.5, 20)

	w, err := scenario.BuildPairs(scenario.PairsConfig{
		Config: scenario.Config{
			Seed:      7,
			UseRTSCTS: true,
			Trace:     fanoutTap{rec, dom},
		},
		N:         2,
		Transport: scenario.UDP,
		// R2 inflates the NAV of its CTS and ACK frames by 10 ms (the
		// PolicySpec defaults).
		ReceiverSpecs: []scenario.StationSpec{{}, {Policy: scenario.PolicySpec{Name: scenario.PolicyNAVInflation}}},
	})
	if err != nil {
		log.Fatalf("airtime_forensics: %v", err)
	}
	const d = 4 * sim.Second
	w.Run(d)

	fmt.Println("Per-flow goodput (R2 inflates CTS/ACK NAV by 10 ms):")
	for _, fl := range w.Flows() {
		fmt.Printf("  flow %d (%s -> %s): %.2f Mbps\n", fl.ID, fl.From, fl.To, fl.GoodputMbps(d))
	}

	fmt.Println("\nChannel accounting (trace.Recorder):")
	fmt.Print(rec.Summary(d))

	fmt.Println("\nDOMINO backoff monitor (sender-side prior art):")
	for _, v := range dom.Verdicts() {
		status := "compliant"
		if v.FlaggedCheat {
			status = "FLAGGED"
		}
		if v.Samples < 20 {
			status = "too few samples"
		}
		fmt.Printf("  station %d: %d acquisitions, avg backoff %.1f slots (nominal %.1f) — %s\n",
			v.Station, v.Samples, v.AvgBackoff, v.Nominal, status)
	}
	fmt.Println("\nEvery sender contends normally — the receiver-side attack is invisible")
	fmt.Println("to sender-side monitors. GRC (examples/detection_grc) catches it.")

	fmt.Println("\nLast channel events:")
	for _, e := range rec.Events()[:8] {
		fmt.Println(" ", e)
	}
}
