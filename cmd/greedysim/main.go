// Command greedysim runs one hotspot scenario with a chosen greedy
// receiver misbehavior and prints per-flow goodput.
//
// Examples:
//
//	greedysim -misbehavior nav -nav 10ms -transport udp
//	greedysim -misbehavior spoof -transport tcp -ber 2e-4 -grc
//	greedysim -misbehavior fake -hidden -gp 50
//	greedysim -pairs 8 -misbehavior nav -greedy 2 -nav 31ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"greedy80211/internal/detect"
	"greedy80211/internal/experiments"
	"greedy80211/internal/greedy"
	"greedy80211/internal/metrics"
	"greedy80211/internal/phys"
	"greedy80211/internal/profileflags"
	"greedy80211/internal/runner"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
	"greedy80211/internal/stats"
	"greedy80211/internal/trace"
	"greedy80211/internal/versionflag"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseMisbehavior maps a -misbehavior value to its scenario policy name
// (scenario.PolicyNone for a compliant network).
func parseMisbehavior(s string) (string, error) {
	switch s {
	case "none", "":
		return scenario.PolicyNone, nil
	case "nav", "nav-inflation":
		return scenario.PolicyNAVInflation, nil
	case "spoof", "ack-spoofing":
		return scenario.PolicyACKSpoofing, nil
	case "fake", "fake-acks":
		return scenario.PolicyFakeACKs, nil
	default:
		return "", fmt.Errorf("unknown misbehavior %q (none|nav|spoof|fake)", s)
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("greedysim", flag.ContinueOnError)
	var (
		misFlag   = fs.String("misbehavior", "none", "none | nav | spoof | fake")
		transport = fs.String("transport", "udp", "udp | tcp")
		band      = fs.String("band", "b", "802.11 band: b | a")
		pairs     = fs.Int("pairs", 2, "number of sender-receiver flows")
		greedyN   = fs.Int("greedy", 1, "number of greedy receivers (the last ones; ignored without -misbehavior)")
		gp        = fs.Float64("gp", 100, "greedy percentage (0-100)")
		nav       = fs.Duration("nav", 0, "NAV inflation amount (misbehavior nav), e.g. 10ms")
		frames    = fs.String("frames", "cts+ack", "frames to inflate: a +-joined subset of rts, cts, data, ack (e.g. rts+cts), or all")
		ber       = fs.Float64("ber", 0, "channel bit error rate (Table III model)")
		dataFER   = fs.Float64("data-fer", 0, "fixed data-frame error rate")
		hidden    = fs.Bool("hidden", false, "hidden-terminal topology (fake-ACK study; UDP only)")
		sharedAP  = fs.Bool("shared-ap", false, "all flows behind one access point")
		noRTS     = fs.Bool("no-rtscts", false, "disable RTS/CTS")
		grc       = fs.Bool("grc", false, "enable the GRC countermeasure at every station")
		duration  = fs.Duration("duration", 0, "simulated time per run (default 5s)")
		runs      = fs.Int("runs", 0, "seeded repetitions (default 5, median reported)")
		seed      = fs.Int64("seed", 1, "base seed")
		traceDir  = fs.String("trace", "",
			"attach a flight recorder and invariant checker to every run, write JSONL traces + ASCII timelines into this directory, and print channel airtime accounting; violations exit 1")
		traceCap = fs.Int("trace-cap", 0, "flight-recorder ring capacity in events per run (default 4096)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"worker-pool size for seeded repetitions; 1 = sequential (output is identical either way)")
		metricsOut = fs.String("metrics", "", "write the per-station telemetry snapshot to this file (.csv for CSV, else JSONL)")
		version    = versionflag.Register(fs)
		prof       = profileflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if versionflag.Handle(version, os.Stdout, "greedysim") {
		return 0
	}
	runner.SetLimit(*parallel)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
		return 1
	}
	defer stopProf()
	mis, err := parseMisbehavior(*misFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
		return 2
	}
	frameSet, err := greedy.ParseFrameSet(*frames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
		return 2
	}
	var tr scenario.Transport
	switch *transport {
	case "udp":
		tr = scenario.UDP
	case "tcp":
		tr = scenario.TCP
	default:
		fmt.Fprintf(os.Stderr, "greedysim: unknown transport %q\n", *transport)
		return 2
	}
	base := scenario.Config{UseRTSCTS: !*noRTS}
	if mis == scenario.PolicyACKSpoofing {
		base.Capture = scenario.CaptureStrongest
	}
	switch *band {
	case "b":
		base.Band = phys.Band80211B
	case "a":
		base.Band = phys.Band80211A
	default:
		fmt.Fprintf(os.Stderr, "greedysim: unknown band %q\n", *band)
		return 2
	}
	if mis == scenario.PolicyNone {
		*greedyN = 0
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Reject flag combinations that describe no runnable world, naming
	// the offending flag.
	switch {
	case *runs < 0:
		err = fmt.Errorf("-runs %d is negative", *runs)
	case *duration < 0:
		err = fmt.Errorf("-duration %v is negative", *duration)
	case *pairs < 1:
		err = fmt.Errorf("-pairs %d: need at least one pair", *pairs)
	case mis != scenario.PolicyNone && *greedyN < 1:
		err = fmt.Errorf("-greedy %d: -misbehavior %s needs at least one greedy receiver", *greedyN, *misFlag)
	case set["nav"] && mis != scenario.PolicyNAVInflation:
		err = fmt.Errorf("-nav applies to -misbehavior nav only, not %s", *misFlag)
	case set["frames"] && mis != scenario.PolicyNAVInflation:
		err = fmt.Errorf("-frames applies to -misbehavior nav only, not %s", *misFlag)
	case *greedyN > *pairs:
		err = fmt.Errorf("-greedy %d exceeds -pairs %d", *greedyN, *pairs)
	case *gp < 0 || *gp > 100:
		err = fmt.Errorf("-gp %v out of [0,100]", *gp)
	case *hidden && (*pairs != 2 || *sharedAP):
		err = fmt.Errorf("-hidden needs -pairs 2 and no -shared-ap")
	case *hidden && tr != scenario.UDP:
		err = fmt.Errorf("-hidden runs UDP flows only, not -transport %s", *transport)
	case mis == scenario.PolicyFakeACKs && *ber == 0 && *dataFER == 0 && !*hidden:
		err = fmt.Errorf("-misbehavior fake needs a loss source: -ber, -data-fer or -hidden")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
		return 1
	}
	switch {
	case *dataFER > 0:
		base.Error = phys.DataFERSpec(*dataFER)
	case *ber > 0:
		base.Error = phys.BERSpec(*ber)
	}

	// The last -greedy receivers run the misbehavior; a spoofer forges
	// ACKs for every normal receiver, which builders add first.
	nNormal := *pairs - *greedyN
	policy := scenario.PolicySpec{Name: mis, GreedyPercent: gp}
	switch mis {
	case scenario.PolicyNAVInflation:
		policy.NAVInflation = sim.Time(nav.Nanoseconds())
		policy.Frames = frameSet.String()
	case scenario.PolicyACKSpoofing:
		for j := 0; j < nNormal; j++ {
			policy.Victims = append(policy.Victims, scenario.ReceiverName(j))
		}
	}
	var grcCfg *detect.Config
	if *grc {
		c := detect.DefaultConfig()
		grcCfg = &c
	}
	recv := make([]scenario.StationSpec, *pairs)
	send := make([]scenario.StationSpec, *pairs)
	for i := range recv {
		recv[i].GRC = grcCfg
		send[i].GRC = grcCfg
		if i >= nNormal {
			recv[i].Policy = policy
		}
	}
	build := func(seed int64) (*scenario.World, error) {
		cfg := base
		cfg.Seed = seed
		switch {
		case *hidden:
			return scenario.BuildHiddenPairs(scenario.HiddenPairsConfig{Config: cfg, ReceiverSpecs: recv})
		case *sharedAP:
			return scenario.BuildSharedAP(scenario.SharedAPConfig{
				Config: cfg, N: *pairs, Transport: tr, ReceiverSpecs: recv, SenderSpec: send[0],
			})
		default:
			return scenario.BuildPairs(scenario.PairsConfig{
				Config: cfg, N: *pairs, Transport: tr, ReceiverSpecs: recv, SenderSpecs: send,
			})
		}
	}
	// countGRC sums the countermeasure's interventions over every station.
	var countGRC func(w *scenario.World, m map[string]float64)
	if *grc {
		countGRC = func(w *scenario.World, m map[string]float64) {
			for i := 0; i < *pairs; i++ {
				for _, name := range []string{scenario.SenderName(i), scenario.ReceiverName(i)} {
					if st, ok := w.Station(name); ok && st.GRC != nil {
						m["nav"] += float64(st.GRC.Stats().NAVClamped)
						m["spoof"] += float64(st.GRC.Stats().SpoofIgnored)
					}
				}
			}
		}
	}

	rc := experiments.RunConfig{
		BaseSeed: *seed - 1,
		Seeds:    *runs,
		Duration: sim.Time(duration.Nanoseconds()),
	}.Normalize()
	if *metricsOut != "" {
		rc.Metrics = metrics.NewCollector()
	}
	if *traceDir != "" {
		rc.Trace = trace.NewCollector(*traceCap)
	}
	flows, grcMedians, err := experiments.RunSeeds(rc, build, countGRC)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
		return 1
	}

	title := mis
	if title == scenario.PolicyNone {
		title = "none"
	}
	t := stats.Table{
		Title:  fmt.Sprintf("misbehavior=%s transport=%s band=802.11%s grc=%v", title, *transport, *band, *grc),
		Header: []string{"flow", "role", "goodput_mbps"},
	}
	// Every topology numbers flow i+1 from sender i to receiver i.
	var greedySum, normalSum float64
	for id := 1; id <= *pairs; id++ {
		role := "normal"
		if id > nNormal {
			role = "greedy"
			greedySum += flows[id]
		} else {
			normalSum += flows[id]
		}
		t.AddRow(id, role, flows[id])
	}
	fmt.Print(t.String())
	if greedySum > 0 {
		normalAvg := 0.0
		if nNormal > 0 {
			normalAvg = normalSum / float64(nNormal)
		}
		fmt.Printf("greedy avg %.3f Mbps vs normal avg %.3f Mbps\n",
			greedySum/float64(*greedyN), normalAvg)
	}
	if *grc {
		fmt.Printf("GRC interventions per run (median): %.0f NAV corrections, %.0f spoofed ACKs ignored\n",
			grcMedians["nav"], grcMedians["spoof"])
	}
	if rc.Metrics != nil {
		var items []metrics.Labeled
		for i, snap := range rc.Metrics.Snapshots() {
			items = append(items, metrics.Labeled{Label: "greedysim", Group: i, Snap: snap})
		}
		if err := metrics.WriteFile(*metricsOut, items...); err != nil {
			fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
			return 1
		}
		fmt.Printf("telemetry written to %s\n", *metricsOut)
	}
	if rc.Trace != nil {
		recs := rc.Trace.Recordings()
		paths, err := trace.ExportDir(*traceDir, "greedysim", recs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
			return 1
		}
		if len(recs) > 0 {
			fmt.Printf("run 0 (seed %d) channel accounting:\n", recs[0].Seed)
			fmt.Print(recs[0].Recorder.Summary(rc.Duration))
		}
		fmt.Printf("%d trace files written to %s\n", len(paths), *traceDir)
		var verr *trace.ViolationError
		if errors.As(trace.Check(recs), &verr) {
			fmt.Fprintf(os.Stderr, "greedysim: %v:\n", verr)
			for _, v := range verr.Violations {
				fmt.Fprintln(os.Stderr, v)
			}
			return 1
		}
	}
	return 0
}
