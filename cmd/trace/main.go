// Command trace reads the simulator's flight-recorder files: it renders
// recorded traces, converts them to Chrome trace-event JSON, and
// re-checks the 802.11 access invariants over them. It simulates
// nothing. Traces are recorded by experiments -run <id> -trace <dir> (or
// greedysim -trace <dir>), which checks every world live as it runs;
// trace check then verifies that the written files say the same.
//
// Usage:
//
//	trace render traces/fig1_run0_seed1.trace.jsonl          # ASCII timeline
//	trace render -format text traces/fig1_run0_seed1.trace.jsonl
//	trace export -o fig1.json traces/fig1_run0_seed1.trace.jsonl
//	trace check traces/*.trace.jsonl
//
// Subcommands:
//
//	render  print a recorded trace as an ASCII timeline or event log
//	export  convert a recorded trace to Chrome trace-event JSON
//	        (load in ui.perfetto.dev or chrome://tracing)
//	check   verify the DCF invariants over recorded files
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
	"greedy80211/internal/versionflag"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: trace <render|export|check> [flags]")
	fmt.Fprintln(w, "  render  [-format timeline|text] [-width N] <file.trace.jsonl>")
	fmt.Fprintln(w, "  export  [-o file] <file.trace.jsonl>")
	fmt.Fprintln(w, "  check   <file.trace.jsonl> ...")
}

func run(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	switch args[0] {
	case "render":
		return cmdRender(args[1:])
	case "export":
		return cmdExport(args[1:])
	case "check":
		return cmdCheck(args[1:])
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return 0
	case "-version", "--version":
		v := true
		versionflag.Handle(&v, os.Stdout, "trace")
		return 0
	default:
		fmt.Fprintf(os.Stderr, "trace: unknown subcommand %q\n", args[0])
		usage(os.Stderr)
		return 2
	}
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "trace: %v\n", err)
	return 1
}

func readTrace(path string) (trace.Meta, []trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Meta{}, nil, err
	}
	defer f.Close()
	return trace.ReadJSONL(f)
}

// cmdRender prints a recorded trace for terminal reading.
func cmdRender(args []string) int {
	fs := flag.NewFlagSet("trace render", flag.ContinueOnError)
	var (
		format = fs.String("format", "timeline", "timeline | text")
		width  = fs.Int("width", 120, "timeline width in columns")
		from   = fs.Duration("from", 0, "window start (e.g. 100ms); zero with -to zero autosizes")
		to     = fs.Duration("to", 0, "window end")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "trace render: exactly one trace file required")
		return 2
	}
	meta, events, err := readTrace(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	switch *format {
	case "timeline":
		fmt.Print(trace.RenderTimeline(meta, events,
			sim.Time(from.Nanoseconds()), sim.Time(to.Nanoseconds()), *width))
	case "text":
		for _, e := range events {
			fmt.Println(e.String())
		}
	default:
		fmt.Fprintf(os.Stderr, "trace render: unknown format %q\n", *format)
		return 2
	}
	return 0
}

// cmdExport converts a recorded trace to Chrome trace-event JSON.
func cmdExport(args []string) int {
	fs := flag.NewFlagSet("trace export", flag.ContinueOnError)
	out := fs.String("o", "-", "output file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "trace export: exactly one trace file required")
		return 2
	}
	meta, events, err := readTrace(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteChromeTrace(w, meta, events); err != nil {
		return fail(err)
	}
	return 0
}

// cmdCheck re-verifies the DCF invariants over recorded files.
func cmdCheck(args []string) int {
	fs := flag.NewFlagSet("trace check", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "trace check: at least one trace file required")
		usage(os.Stderr)
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		meta, events, err := readTrace(path)
		if err != nil {
			return fail(err)
		}
		ck := trace.NewChecker(meta.Timing)
		for i := range events {
			ck.Feed(&events[i])
		}
		if n := ck.Count(); n > 0 {
			bad += n
			fmt.Printf("%s: %d events, %d VIOLATIONS\n", path, len(events), n)
			for _, v := range ck.Violations() {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
		} else {
			fmt.Printf("%s: %d events, clean\n", path, len(events))
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d invariant violations\n", bad)
		return 1
	}
	return 0
}
