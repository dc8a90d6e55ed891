package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseMisbehavior(t *testing.T) {
	tests := []struct {
		in      string
		wantErr bool
	}{
		{"none", false}, {"", false}, {"nav", false}, {"nav-inflation", false},
		{"spoof", false}, {"ack-spoofing", false}, {"fake", false},
		{"fake-acks", false}, {"bogus", true},
	}
	for _, tt := range tests {
		if _, err := parseMisbehavior(tt.in); (err != nil) != tt.wantErr {
			t.Errorf("parseMisbehavior(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
	}
}

// TestParseFrames: -frames takes every frame-set name, and the empty
// value means the same CTS+ACK set as the flag's default. Without
// RTS/CTS the greedy UDP receiver sends only ACKs, so the frame set
// decides whether it inflates at all.
func TestParseFrames(t *testing.T) {
	nav := func(frames ...string) (string, int) {
		t.Helper()
		args := append([]string{"-misbehavior", "nav", "-nav", "5ms", "-no-rtscts",
			"-runs", "1", "-duration", "200ms"}, frames...)
		return captureStdout(t, func() int { return run(args) })
	}
	for _, ok := range []string{"cts", "", "ack", "cts+ack", "rts+cts", "all", "rts", "data+ack"} {
		if _, code := nav("-frames", ok); code != 0 {
			t.Errorf("-frames %q: exit %d", ok, code)
		}
	}
	if _, code := nav("-frames", "datagram"); code != 2 {
		t.Errorf("-frames datagram: exit %d, want 2", code)
	}
	def, _ := nav()
	empty, _ := nav("-frames", "")
	if def != empty {
		t.Errorf("-frames \"\" differs from the default:\n%s\nvs\n%s", empty, def)
	}
	rts, _ := nav("-frames", "rts")
	if rts == def {
		t.Error("-frames rts matches the cts+ack default; the flag is ignored")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed along with f's result.
func captureStdout(t *testing.T, f func() int) (string, int) {
	t.Helper()
	return capture(t, &os.Stdout, f)
}

// capture runs f with *file redirected to a pipe and returns what f
// wrote to it along with f's result.
func capture(t *testing.T, file **os.File, f func() int) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := *file
	*file = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := f()
	*file = saved
	w.Close()
	return <-out, code
}

// TestEndToEnd checks the paper's headline shapes through the command:
// each misbehavior earns the greedy flow at least three times the
// normal flow's goodput, GRC restores fairness and says how often it
// stepped in, every topology reports one row per flow, and -gp 0 is a
// receiver that never misbehaves (not the 100% default). Two 2 s runs
// per case.
func TestEndToEnd(t *testing.T) {
	mean := func(v []float64) float64 {
		var sum float64
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	tests := []struct {
		name  string
		args  []string
		check func(t *testing.T, out string, normal, greedy []float64)
	}{
		{"baseline", []string{"-seed", "1"}, func(t *testing.T, out string, normal, greedy []float64) {
			if len(normal) != 2 || len(greedy) != 0 {
				t.Fatalf("want two normal flows:\n%s", out)
			}
			for i, mbps := range normal {
				if mbps < 1.0 {
					t.Errorf("flow %d goodput %.2f Mbps too low", i+1, mbps)
				}
			}
		}},
		{"nav inflation", []string{"-seed", "2", "-misbehavior", "nav"}, func(t *testing.T, out string, normal, greedy []float64) {
			if mean(greedy) < 3*mean(normal) {
				t.Errorf("10 ms inflation should dominate:\n%s", out)
			}
		}},
		{"gp zero", []string{"-seed", "2", "-misbehavior", "nav", "-gp", "0"}, func(t *testing.T, out string, normal, greedy []float64) {
			if math.Abs(mean(normal)-mean(greedy)) > 0.1*mean(greedy) {
				t.Errorf("-gp 0: normal flow not within 10%% of the greedy flow:\n%s", out)
			}
		}},
		{"nav inflation with grc", []string{"-seed", "3", "-misbehavior", "nav", "-frames", "cts", "-grc"},
			func(t *testing.T, out string, normal, greedy []float64) {
				var corrections float64
				for _, line := range strings.Split(out, "\n") {
					fmt.Sscanf(line, "GRC interventions per run (median): %g", &corrections)
				}
				if corrections == 0 {
					t.Errorf("GRC never corrected a NAV:\n%s", out)
				}
				if mean(normal) < 0.5*mean(greedy) {
					t.Errorf("GRC left the normal flow starved:\n%s", out)
				}
			}},
		{"ack spoofing", []string{"-seed", "4", "-misbehavior", "spoof", "-transport", "tcp", "-ber", "2e-4"},
			func(t *testing.T, out string, normal, greedy []float64) {
				if mean(greedy) < 3*mean(normal) {
					t.Errorf("spoofing did not pay:\n%s", out)
				}
			}},
		{"fake acks hidden", []string{"-seed", "5", "-misbehavior", "fake", "-hidden"},
			func(t *testing.T, out string, normal, greedy []float64) {
				if mean(greedy) < 3*mean(normal) {
					t.Errorf("fake ACKs did not pay:\n%s", out)
				}
			}},
		// -grc arms the shared AP too. With four receivers 3 m apart the
		// spoofer's forged ACKs reach the AP ≥10 dB below the nearest
		// victim's, so GRC can safely ignore them (two receivers are too
		// close for that: GRC suspects the ACKs but lets them through).
		{"shared ap spoofing with grc", []string{"-seed", "7", "-shared-ap", "-misbehavior", "spoof",
			"-transport", "tcp", "-ber", "2e-4", "-grc", "-pairs", "4"},
			func(t *testing.T, out string, normal, greedy []float64) {
				var corrections, ignored float64
				for _, line := range strings.Split(out, "\n") {
					fmt.Sscanf(line, "GRC interventions per run (median): %g NAV corrections, %g spoofed",
						&corrections, &ignored)
				}
				if ignored == 0 {
					t.Errorf("the shared AP's GRC never ignored a spoofed ACK:\n%s", out)
				}
			}},
		{"shared ap", []string{"-seed", "6", "-shared-ap", "-transport", "tcp", "-pairs", "3"},
			func(t *testing.T, out string, normal, greedy []float64) {
				if len(normal) != 3 {
					t.Errorf("want three flows:\n%s", out)
				}
			}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			args := append(tt.args, "-runs", "2", "-duration", "2s")
			out, code := captureStdout(t, func() int { return run(args) })
			if code != 0 {
				t.Fatalf("run(%v) = %d", args, code)
			}
			roles := map[string][]float64{}
			for _, line := range strings.Split(out, "\n") {
				var id int
				var role string
				var mbps float64
				if n, _ := fmt.Sscanf(line, "%d %s %g", &id, &role, &mbps); n == 3 {
					roles[role] = append(roles[role], mbps)
				}
			}
			tt.check(t, out, roles["normal"], roles["greedy"])
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
		msg  string // stderr must contain it
	}{
		{"bad flag", []string{"-nope"}, 2, ""},
		{"bad misbehavior", []string{"-misbehavior", "x"}, 2, ""},
		{"bad transport", []string{"-transport", "x"}, 2, ""},
		{"bad band", []string{"-band", "x"}, 2, ""},
		{"bad frames", []string{"-frames", "x"}, 2, ""},
		{"invalid config", []string{"-misbehavior", "nav", "-greedy", "9", "-pairs", "2",
			"-runs", "1", "-duration", "1s"}, 1, "-greedy"},
		{"baseline run", []string{"-runs", "1", "-duration", "1s"}, 0, ""},
		{"nav with grc and trace", []string{"-misbehavior", "nav", "-nav", "5ms",
			"-grc", "-trace", t.TempDir(), "-runs", "1", "-duration", "1s"}, 0, ""},
		{"spoof tcp", []string{"-misbehavior", "spoof", "-transport", "tcp",
			"-ber", "2e-4", "-runs", "1", "-duration", "1s"}, 0, ""},
		{"fake hidden", []string{"-misbehavior", "fake", "-hidden",
			"-runs", "1", "-duration", "1s"}, 0, ""},
		{"shared ap 11a", []string{"-shared-ap", "-band", "a", "-pairs", "3",
			"-runs", "1", "-duration", "1s"}, 0, ""},
		{"no rtscts", []string{"-no-rtscts", "-runs", "1", "-duration", "1s"}, 0, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stderr, got := capture(t, &os.Stderr, func() int { return run(tt.args) })
			if got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
			if !strings.Contains(stderr, tt.msg) {
				t.Errorf("run(%v) stderr %q does not name %s", tt.args, stderr, tt.msg)
			}
		})
	}
}

// TestValidation checks that each flag combination that cannot describe a
// world exits 1 before any world is built, with a message naming the flag.
func TestValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		msg  string // stderr must contain it
	}{
		{"greedy exceeds pairs", []string{"-misbehavior", "nav", "-greedy", "5", "-pairs", "2"},
			"-greedy 5 exceeds -pairs 2"},
		{"bad GP", []string{"-gp", "150"}, "-gp"},
		{"hidden with shared AP", []string{"-hidden", "-shared-ap"}, "-shared-ap"},
		{"fake acks without loss", []string{"-misbehavior", "fake"}, "-ber"},
		{"negative runs", []string{"-runs", "-1"}, "-runs"},
		{"negative duration", []string{"-duration", "-1s"}, "-duration"},
		{"zero pairs", []string{"-pairs", "0"}, "-pairs"},
		{"zero greedy", []string{"-misbehavior", "nav", "-greedy", "0"}, "-greedy"},
		{"hidden tcp", []string{"-misbehavior", "fake", "-hidden", "-transport", "tcp"}, "-transport"},
		{"nav without nav misbehavior", []string{"-misbehavior", "spoof", "-transport", "tcp", "-ber", "2e-4",
			"-nav", "10ms"}, "-nav"},
		{"frames without nav misbehavior", []string{"-misbehavior", "spoof", "-transport", "tcp", "-ber", "2e-4",
			"-frames", "rts"}, "-frames"},
		{"zero nav without misbehavior", []string{"-nav", "0"}, "-nav"},
		{"default frames without misbehavior", []string{"-frames", "cts+ack"}, "-frames"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stderr, got := capture(t, &os.Stderr, func() int { return run(tt.args) })
			if got != 1 {
				t.Errorf("run(%v) = %d, want 1", tt.args, got)
			}
			if !strings.Contains(stderr, tt.msg) {
				t.Errorf("run(%v) stderr %q does not name %s", tt.args, stderr, tt.msg)
			}
		})
	}
}
