package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"greedy80211/internal/runner"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

// exportAll serializes recordings in the given (canonical) order,
// exactly as trace.ExportDir would lay the files out.
func exportAll(t *testing.T, recs []*trace.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := trace.WriteJSONL(&buf, rec.Meta("x"), rec.Recorder.Events()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The flight recorder must be invisible to scheduling and its exports
// deterministic: the same artifact recorded on a single-worker pool and
// on a wide pool must produce byte-identical JSONL streams, because the
// Collector orders recordings canonically by seed, not completion order.
// fig1 fans out seeds under one sweep; abl1 nests RunSeeds per case.
func TestTraceParallelMatchesSequential(t *testing.T) {
	old := runner.Limit()
	defer runner.SetLimit(old)
	for _, id := range []string{"fig1", "abl1"} {
		t.Run(id, func(t *testing.T) {
			run := func(limit int) []byte {
				runner.SetLimit(limit)
				cfg := RunConfig{Quick: true, Seeds: 2, BaseSeed: 17}
				_, recs, err := RunTraced(id, cfg, 0)
				if err != nil {
					t.Fatalf("limit %d: %v", limit, err)
				}
				return exportAll(t, recs)
			}
			seq := run(1)
			par := run(8)
			if !bytes.Equal(seq, par) {
				t.Errorf("%s: parallel trace differs from sequential (%d vs %d bytes)",
					id, len(seq), len(par))
			}
			if len(seq) == 0 {
				t.Errorf("%s: empty trace export", id)
			}
		})
	}
}

// TestTraceDoesNotPerturbResults: attaching the recorder must not change
// the artifact's numbers — probes consume no randomness and schedule no
// events.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	cfg := RunConfig{Quick: true, Seeds: 2, BaseSeed: 17}
	bare, err := Run("fig1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunTraced("fig1", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bare.String() != got.String() {
		t.Errorf("tracing changed fig1 output:\n--- bare ---\n%s\n--- traced ---\n%s",
			bare.String(), got.String())
	}
}

// TestWiredSenderWorldKeepsIFSSpacing: in fig16's wired-sender world a
// TCP segment reaches the AP at the very nanosecond its own CTS ends
// (seed 3, 44,704,019,307 ns). The AP must defer DIFS plus a backoff
// rather than send an RTS on top of the DATA its CTS asked for.
func TestWiredSenderWorldKeepsIFSSpacing(t *testing.T) {
	w, err := remoteSenders(3, 400*sim.Millisecond, 80)
	if err != nil {
		t.Fatal(err)
	}
	coll := trace.NewCollector(0)
	w.AttachTrace(coll.Start(3))
	w.Run(45 * sim.Second)
	if err := trace.Check(coll.Recordings()); err != nil {
		t.Errorf("%v, want 0:\n%s", err, strings.Join(err.(*trace.ViolationError).Violations, "\n"))
	}
}

// TestFileRecheckMatchesLive: re-checking a recording from what its file
// holds (the ring's retained events and the header's timing) must report
// exactly what the live checker, which saw every event, reported. fig11
// at the report profile wraps its rings, and at the default capacity one
// of its files opens at the very instant a reception it answers ended.
func TestFileRecheckMatchesLive(t *testing.T) {
	cfg := RunConfig{Seeds: 3, Duration: sim.Second}
	for _, capacity := range []int{64, 256, 0} {
		_, recs, err := RunTraced("fig11", cfg, capacity)
		var verr *trace.ViolationError
		if err != nil && !errors.As(err, &verr) {
			t.Fatalf("cap %d: %v", capacity, err)
		}
		var live, file []string
		if verr != nil {
			live = verr.Violations
		}
		truncated := 0
		for _, rec := range recs {
			if rec.Recorder.Dropped() > 0 {
				truncated++
			}
			ck := trace.NewChecker(rec.Meta("fig11").Timing)
			events := rec.Recorder.Events()
			for i := range events {
				ck.Feed(&events[i])
			}
			for _, v := range ck.Violations() {
				file = append(file, fmt.Sprintf("seed=%d %s", rec.Seed, v))
			}
		}
		if truncated == 0 {
			t.Errorf("cap %d: no ring wrapped; the profile no longer exercises truncation", capacity)
		}
		if !slices.Equal(file, live) {
			t.Errorf("cap %d: file re-check found %d violations, live %d:\nfile: %s\nlive: %s",
				capacity, len(file), len(live), strings.Join(file, "\n"), strings.Join(live, "\n"))
		}
	}
}
