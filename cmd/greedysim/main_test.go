package main

import (
	"io"
	"os"
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
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := f()
	os.Stdout = saved
	w.Close()
	return <-out, code
}

func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"bad misbehavior", []string{"-misbehavior", "x"}, 2},
		{"bad transport", []string{"-transport", "x"}, 2},
		{"bad band", []string{"-band", "x"}, 2},
		{"bad frames", []string{"-frames", "x"}, 2},
		{"invalid config", []string{"-misbehavior", "nav", "-greedy", "9", "-pairs", "2",
			"-runs", "1", "-duration", "1s"}, 1},
		{"baseline run", []string{"-runs", "1", "-duration", "1s"}, 0},
		{"nav with grc and trace", []string{"-misbehavior", "nav", "-nav", "5ms",
			"-grc", "-trace", t.TempDir(), "-runs", "1", "-duration", "1s"}, 0},
		{"spoof tcp", []string{"-misbehavior", "spoof", "-transport", "tcp",
			"-ber", "2e-4", "-runs", "1", "-duration", "1s"}, 0},
		{"fake hidden", []string{"-misbehavior", "fake", "-hidden",
			"-runs", "1", "-duration", "1s"}, 0},
		{"shared ap 11a", []string{"-shared-ap", "-band", "a", "-pairs", "3",
			"-runs", "1", "-duration", "1s"}, 0},
		{"no rtscts", []string{"-no-rtscts", "-runs", "1", "-duration", "1s"}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}
