package main

import (
	"os"
	"path/filepath"
	"testing"

	"greedy80211/internal/experiments"
	"greedy80211/internal/trace"
)

func TestUsageAndBadArgs(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown subcommand", []string{"bogus"}, 2},
		{"help", []string{"help"}, 0},
		// Recording lives in experiments -trace; run is no subcommand.
		{"run is gone", []string{"run", "-artifact", "fig1"}, 2},
		{"render without file", []string{"render"}, 2},
		{"render missing file", []string{"render", "/nonexistent/x.jsonl"}, 1},
		// The file is read before the format is validated, so an empty
		// file fails first with exit 1.
		{"render empty file", []string{"render", "/dev/null"}, 1},
		{"export without file", []string{"export"}, 2},
		// export writes Chrome JSON only and takes no -format; render
		// prints the timeline.
		{"export format is gone", []string{"export", "-format", "chrome", "/dev/null"}, 2},
		{"export timeline is gone", []string{"export", "-format", "timeline", "/dev/null"}, 2},
		{"export width is gone", []string{"export", "-width", "80", "/dev/null"}, 2},
		{"check missing file", []string{"check", "/nonexistent/x.jsonl"}, 1},
		// check reads files only; recording is experiments -trace.
		{"check without files", []string{"check"}, 2},
		{"check parallel is gone", []string{"check", "-parallel", "2", "/dev/null"}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}

// TestRunRenderExportCheckRoundTrip records a quick artifact the way
// experiments -trace does and pushes the resulting file through every
// subcommand.
func TestRunRenderExportCheckRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, recs, err := experiments.RunTraced("fig1", experiments.RunConfig{Quick: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ExportDir(dir, "fig1", recs); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig1_run*_seed*.trace.jsonl"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no trace files recorded: %v %v", matches, err)
	}
	timelines, _ := filepath.Glob(filepath.Join(dir, "*.timeline.txt"))
	if len(timelines) != len(matches) {
		t.Errorf("timelines = %d, traces = %d; want one per run", len(timelines), len(matches))
	}

	file := matches[0]
	if got := run([]string{"render", file}); got != 0 {
		t.Errorf("render timeline = %d", got)
	}
	if got := run([]string{"render", "-format", "text", file}); got != 0 {
		t.Errorf("render text = %d", got)
	}
	out := filepath.Join(dir, "chrome.json")
	if got := run([]string{"export", "-o", out, file}); got != 0 {
		t.Errorf("export chrome = %d", got)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Errorf("chrome export: err=%v size=%d", err, st.Size())
	}
	if got := run([]string{"check", file}); got != 0 {
		t.Errorf("check on a recorded file = %d, want 0 (clean)", got)
	}
}
