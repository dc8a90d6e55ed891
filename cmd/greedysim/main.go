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
	"flag"
	"fmt"
	"os"
	"runtime"

	"greedy80211/internal/core"
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

func parseMisbehavior(s string) (core.Misbehavior, error) {
	switch s {
	case "none", "":
		return core.MisbehaviorNone, nil
	case "nav", "nav-inflation":
		return core.MisbehaviorNAVInflation, nil
	case "spoof", "ack-spoofing":
		return core.MisbehaviorACKSpoofing, nil
	case "fake", "fake-acks":
		return core.MisbehaviorFakeACKs, nil
	default:
		return 0, fmt.Errorf("unknown misbehavior %q (none|nav|spoof|fake)", s)
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("greedysim", flag.ContinueOnError)
	var (
		misFlag   = fs.String("misbehavior", "none", "none | nav | spoof | fake")
		transport = fs.String("transport", "udp", "udp | tcp")
		band      = fs.String("band", "b", "802.11 band: b | a")
		pairs     = fs.Int("pairs", 2, "number of sender-receiver flows")
		greedyN   = fs.Int("greedy", 1, "number of greedy receivers")
		gp        = fs.Float64("gp", 100, "greedy percentage (0-100)")
		nav       = fs.Duration("nav", 0, "NAV inflation amount (misbehavior nav), e.g. 10ms")
		frames    = fs.String("frames", "cts+ack", "frames to inflate: a +-joined subset of rts, cts, data, ack (e.g. rts+cts), or all")
		ber       = fs.Float64("ber", 0, "channel bit error rate (Table III model)")
		dataFER   = fs.Float64("data-fer", 0, "fixed data-frame error rate")
		hidden    = fs.Bool("hidden", false, "hidden-terminal topology (fake-ACK study)")
		sharedAP  = fs.Bool("shared-ap", false, "all flows behind one access point")
		noRTS     = fs.Bool("no-rtscts", false, "disable RTS/CTS")
		grc       = fs.Bool("grc", false, "enable the GRC countermeasure at every station")
		duration  = fs.Duration("duration", 0, "simulated time per run (default 5s)")
		runs      = fs.Int("runs", 0, "seeded repetitions (default 5, median reported)")
		seed      = fs.Int64("seed", 1, "base seed")
		traceDir  = fs.String("trace", "",
			"attach a flight recorder to every run, write JSONL traces + ASCII timelines into this directory, and print channel airtime accounting")
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
	cfg := core.Config{
		Seed:            *seed,
		Runs:            *runs,
		Duration:        sim.Time(duration.Nanoseconds()),
		Pairs:           *pairs,
		SharedAP:        *sharedAP,
		HiddenTerminals: *hidden,
		DisableRTSCTS:   *noRTS,
		Misbehavior:     mis,
		GreedyReceivers: *greedyN,
		GreedyPercent:   *gp,
		NAVInflation:    sim.Time(nav.Nanoseconds()),
		NAVFrames:       frameSet,
		BER:             *ber,
		DataFER:         *dataFER,
		EnableGRC:       *grc,
	}
	if mis == core.MisbehaviorNone {
		cfg.GreedyReceivers = 0
	}
	var coll *trace.Collector
	if *traceDir != "" {
		coll = trace.NewCollector(*traceCap)
		cfg.FlightRecorder = coll
	}
	switch *transport {
	case "udp":
		cfg.Transport = scenario.UDP
	case "tcp":
		cfg.Transport = scenario.TCP
	default:
		fmt.Fprintf(os.Stderr, "greedysim: unknown transport %q\n", *transport)
		return 2
	}
	switch *band {
	case "b":
		cfg.Band = phys.Band80211B
	case "a":
		cfg.Band = phys.Band80211A
	default:
		fmt.Fprintf(os.Stderr, "greedysim: unknown band %q\n", *band)
		return 2
	}
	res, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
		return 1
	}
	t := stats.Table{
		Title:  fmt.Sprintf("misbehavior=%v transport=%s band=802.11%s grc=%v", mis, *transport, *band, *grc),
		Header: []string{"flow", "role", "goodput_mbps"},
	}
	for _, f := range res.Flows {
		role := "normal"
		if f.Greedy {
			role = "greedy"
		}
		t.AddRow(f.ID, role, f.GoodputMbps)
	}
	fmt.Print(t.String())
	if res.Goodput.GreedyMbps > 0 {
		fmt.Printf("greedy avg %.3f Mbps vs normal avg %.3f Mbps\n",
			res.Goodput.GreedyMbps, res.Goodput.NormalMbps)
	}
	if *grc {
		fmt.Printf("GRC interventions per run (median): %.0f NAV corrections, %.0f spoofed ACKs ignored\n",
			res.GRC.NAVCorrections, res.GRC.SpoofsIgnored)
	}
	if *metricsOut != "" {
		if err := metrics.WriteFile(*metricsOut, metrics.Labeled{Label: "greedysim", Snap: res.Metrics}); err != nil {
			fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
			return 1
		}
		fmt.Printf("telemetry written to %s\n", *metricsOut)
	}
	if coll != nil {
		recs := coll.Recordings()
		paths, err := trace.ExportDir(*traceDir, "greedysim", recs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greedysim: %v\n", err)
			return 1
		}
		effDur := cfg.Duration
		if effDur == 0 {
			effDur = 5 * sim.Second
		}
		if len(recs) > 0 {
			fmt.Printf("run 0 (seed %d) channel accounting:\n", recs[0].Seed)
			fmt.Print(recs[0].Recorder.Summary(effDur))
		}
		fmt.Printf("%d trace files written to %s\n", len(paths), *traceDir)
	}
	return 0
}
