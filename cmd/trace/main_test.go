package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"run without artifact", []string{"run"}, 2},
		{"run bad flag", []string{"run", "-nope"}, 2},
		{"render without file", []string{"render"}, 2},
		{"render missing file", []string{"render", "/nonexistent/x.jsonl"}, 1},
		// The file is read before the format is validated, so an empty
		// file fails first with exit 1.
		{"render empty file", []string{"render", "/dev/null"}, 1},
		{"export without file", []string{"export"}, 2},
		{"check missing file", []string{"check", "/nonexistent/x.jsonl"}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}

// TestRunRenderExportCheckRoundTrip records a quick artifact and pushes
// the resulting file through every other subcommand.
func TestRunRenderExportCheckRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if got := run([]string{"run", "-artifact", "fig1", "-quick", "-o", dir}); got != 0 {
		t.Fatalf("trace run = %d, want 0", got)
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
	if got := run([]string{"export", "-format", "chrome", "-o", out, file}); got != 0 {
		t.Errorf("export chrome = %d", got)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Errorf("chrome export: err=%v size=%d", err, st.Size())
	}
	if got := run([]string{"check", file}); got != 0 {
		t.Errorf("check on a recorded file = %d, want 0 (clean)", got)
	}
}

// exportGolden is the SHA-256 over the files TestExportIdentityGolden
// writes, taken in name order (file name, then contents, per file). The
// flight recorder's canonical order is part of the byte-identity
// contract: a change to the merge or to the recording order must leave
// this hash alone.
const exportGolden = "730e5d0dd98fcbfc908245b08198511855df68da7cbc4100634837c19e71f6f5"

// TestExportIdentityGolden pins a `trace run` export byte for byte. fig18
// at this profile records two pairs of worlds whose streams are
// identical (same seed, same world from two sweep points), so the
// collector's content tie-break runs to full depth, and the small -cap
// makes every ring wrap.
func TestExportIdentityGolden(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-artifact", "fig18", "-quick", "-seeds", "2",
		"-duration", "200ms", "-cap", "256", "-o", dir}
	if got := run(args); got != 0 {
		t.Fatalf("trace run = %d, want 0", got)
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
