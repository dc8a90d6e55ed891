package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/mac"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		want   int
		stderr string // stderr must begin with it
	}{
		{"no args", nil, 2, "experiments: -run <id> or -list required\n"},
		{"bad flag", []string{"-nope"}, 2, "flag provided but not defined: -nope\n"},
		{"list", []string{"-list"}, 0, ""},
		{"unknown artifact", []string{"-run", "fig99"}, 1, "experiments: unknown artifact \"fig99\"\n"},
		{"tab3 (analytic, instant)", []string{"-run", "tab3"}, 0, ""},
		{"fig1 quick", []string{"-run", "fig1", "-quick"}, 0, ""},
		{"custom seeds and duration", []string{"-run", "tab3", "-seeds", "1",
			"-duration", "1s", "-seed", "9"}, 0, ""},
		{"csv output", []string{"-run", "tab3", "-csv", t.TempDir()}, 0, ""},
		{"json output", []string{"-run", "tab3", "-json", t.TempDir()}, 0, ""},
		{"comma-separated ids", []string{"-run", "tab3,tab1", "-quick", "-duration", "100ms"}, 0, ""},
		// -run is the one way to name artifacts.
		{"artifact alias is gone", []string{"-artifact", "tab3"}, 2,
			"flag provided but not defined: -artifact\n"},
		{"positional id", []string{"tab3"}, 2,
			"experiments: unexpected argument \"tab3\"; name artifacts with -run\n"},
		{"positional id beside -run", []string{"-run", "tab3", "tab1"}, 2,
			"experiments: unexpected argument \"tab1\"; name artifacts with -run\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stderr, got := captureStderr(t, func() int { return run(tt.args) })
			if got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
			if !strings.HasPrefix(stderr, tt.stderr) {
				t.Errorf("run(%v) stderr = %q, want it to begin with %q", tt.args, stderr, tt.stderr)
			}
		})
	}
}

func TestJSONOutputWritesStableFile(t *testing.T) {
	dir := t.TempDir()
	if got := run([]string{"-run", "tab3", "-json", dir}); got != 0 {
		t.Fatalf("run exited %d", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tab3.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "tab3" || len(res.Tables) == 0 {
		t.Errorf("decoded result: id %q, %d tables", res.ID, len(res.Tables))
	}
}

// One failing artifact must not abort the rest: every id is attempted,
// the summary names the failure, and the exit status is nonzero.
func TestRunAllContinuesPastFailure(t *testing.T) {
	real := runArtifact
	defer func() { runArtifact = real }()
	var attempted []string
	runArtifact = func(id string, cfg experiments.RunConfig) (*experiments.Result, error) {
		attempted = append(attempted, id)
		if id == "tab1" {
			return nil, errors.New("injected failure")
		}
		return real(id, cfg)
	}
	if got := run([]string{"-run", "tab3,tab1,extc", "-quick", "-duration", "100ms"}); got != 1 {
		t.Errorf("run with a failing artifact exited %d, want 1", got)
	}
	if len(attempted) != 3 {
		t.Errorf("attempted %v, want all three artifacts", attempted)
	}
}

// A recording that breaks an invariant fails its artifact: its trace
// files are still written, the violation is listed on stderr, and the
// exit status is 1.
func TestTraceViolationFailsArtifact(t *testing.T) {
	real := runTraced
	defer func() { runTraced = real }()
	runTraced = func(id string, cfg experiments.RunConfig, capacity int) (*experiments.Result, []*trace.Recording, error) {
		res, recs, err := real(id, cfg, capacity)
		if err != nil {
			return res, recs, err
		}
		// One more world, whose station wins contention under its own NAV.
		coll := trace.NewCollector(capacity)
		rec := coll.Start(7)
		rec.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeNAVUpdate, At: 0, Station: 1, Until: sim.Second})
		rec.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeTxContend, At: 100 * sim.Microsecond,
			Station: 1, Frame: mac.FrameRTS, Dst: 2})
		recs = append(recs, coll.Recordings()...)
		return res, recs, trace.Check(recs)
	}
	dir := t.TempDir()
	stderr, got := captureStderr(t, func() int { return run([]string{"-run", "tab3", "-trace", dir}) })
	if got != 1 {
		t.Errorf("run with a violating recording exited %d, want 1", got)
	}
	if !strings.Contains(stderr, "seed=7 "+trace.InvNAV) {
		t.Errorf("stderr does not list the violation:\n%s", stderr)
	}
	for _, name := range []string{"tab3_run0_seed7.trace.jsonl", "tab3_run0_seed7.timeline.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("trace file not written: %v", err)
		}
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it
// wrote there along with f's result.
func captureStderr(t *testing.T, f func() int) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := f()
	os.Stderr = saved
	w.Close()
	return <-out, code
}

// exportGolden is the SHA-256 over the files TestExportIdentityGolden
// writes, taken in name order (file name, then contents, per file). The
// flight recorder's canonical order is part of the byte-identity
// contract: a change to the merge or to the recording order must leave
// this hash alone.
const exportGolden = "730e5d0dd98fcbfc908245b08198511855df68da7cbc4100634837c19e71f6f5"

// TestExportIdentityGolden pins a -trace export byte for byte. fig18
// at this profile records two pairs of worlds whose streams are
// identical (same seed, same world from two sweep points), so the
// collector's content tie-break runs to full depth, and the small
// -trace-cap makes every ring wrap.
func TestExportIdentityGolden(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-run", "fig18", "-quick", "-seeds", "2",
		"-duration", "200ms", "-trace-cap", "256", "-trace", dir}
	if got := run(args); got != 0 {
		t.Fatalf("experiments -trace = %d, want 0", got)
	}
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	bodies := make(map[string]int)
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%d\n", e.Name(), len(body))
		h.Write(body)
		if strings.HasSuffix(e.Name(), ".trace.jsonl") {
			bodies[string(body)]++
		}
	}
	if len(entries) != 24 {
		t.Errorf("exported %d files, want 24 (12 worlds)", len(entries))
	}
	if len(bodies) == len(entries)/2 {
		t.Error("no two recordings are identical; the profile no longer exercises a full-depth tie")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exportGolden {
		t.Errorf("export hash = %s, want %s", got, exportGolden)
	}
}
