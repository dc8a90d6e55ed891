package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"greedy80211/internal/experiments"
)

func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"bad flag", []string{"-nope"}, 2},
		{"list", []string{"-list"}, 0},
		{"unknown artifact", []string{"-run", "fig99"}, 1},
		{"tab3 (analytic, instant)", []string{"-run", "tab3"}, 0},
		{"fig1 quick", []string{"-run", "fig1", "-quick"}, 0},
		{"custom seeds and duration", []string{"-run", "tab3", "-seeds", "1",
			"-duration", "1s", "-seed", "9"}, 0},
		{"csv output", []string{"-run", "tab3", "-csv", t.TempDir()}, 0},
		{"json output", []string{"-run", "tab3", "-json", t.TempDir()}, 0},
		{"comma-separated ids", []string{"-run", "tab3,tab1", "-quick", "-duration", "100ms"}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
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
