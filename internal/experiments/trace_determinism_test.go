package experiments

import (
	"bytes"
	"strings"
	"testing"

	"greedy80211/internal/runner"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
)

// exportAll serializes every recording of one collector in canonical
// order, exactly as trace.ExportDir would lay the files out.
func exportAll(t *testing.T, coll *trace.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range coll.Recordings() {
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
				coll := trace.NewCollector(0)
				cfg := RunConfig{Quick: true, Seeds: 2, BaseSeed: 17, Trace: coll}
				if _, err := Run(id, cfg); err != nil {
					t.Fatalf("limit %d: %v", limit, err)
				}
				return exportAll(t, coll)
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
	traced := cfg
	traced.Trace = trace.NewCollector(0)
	got, err := Run("fig1", traced)
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
	rec := coll.Start(3)
	w.AttachTrace(rec, rec)
	w.Run(45 * sim.Second)
	if n := coll.ViolationCount(); n != 0 {
		t.Errorf("%d invariant violations, want 0:\n%s", n,
			strings.Join(trace.Violations(coll.Recordings()), "\n"))
	}
}
