package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestGoldenOutputs pins greedysim's stdout by SHA-256 for one flag set
// per topology and misbehavior, and for the first set also the -metrics
// file and every -trace file. The output directory is replaced by $DIR
// in stdout before hashing, so the digests do not depend on where the
// test runs.
func TestGoldenOutputs(t *testing.T) {
	short := []string{"-runs", "2", "-duration", "500ms"}
	tests := []struct {
		name      string
		args      []string
		files     bool // add -metrics and -trace and hash what they write
		wantOut   string
		wantFiles string
	}{
		{"nav grc", []string{"-misbehavior", "nav", "-nav", "10ms", "-grc"}, true,
			"275e86bc533271e2a5df5c74bee0842ff75a12a557c4cf1c6922bed6ff3e3878",
			"f90aecd7b877864f264ff38d6158db5c4b0284b9d46635775629a723b01b6777"},
		{"spoof tcp ber grc", []string{"-misbehavior", "spoof", "-transport", "tcp",
			"-ber", "2e-4", "-grc"}, false,
			"4e49791d3b7d58452461a7d6b8cd9a306d312a11bb85e710c917725602ee9fd2", ""},
		{"fake hidden", []string{"-misbehavior", "fake", "-hidden"}, false,
			"8b0ffd9f1e37f5a1d31aeb22178b13f4a885fd190d1c7b5baa0ce795b6dc94fe", ""},
		{"shared ap 11a", []string{"-shared-ap", "-band", "a", "-pairs", "3"}, false,
			"0daf4c39010f90870d0e0f28580f1a69592c3782dd988e2abdd1de9b4f2f6c14", ""},
		{"eight pairs two greedy", []string{"-pairs", "8", "-misbehavior", "nav",
			"-greedy", "2"}, false,
			"9a6f8effffed0caa8a2ef98b0663c75b48853b7a2d4a85edfc92e6f677f9aa30", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string(nil), tt.args...), short...)
			if tt.files {
				args = append(args, "-metrics", filepath.Join(dir, "metrics.jsonl"),
					"-trace", filepath.Join(dir, "trace"))
			}
			out, code := captureStdout(t, func() int { return run(args) })
			if code != 0 {
				t.Fatalf("run(%v) = %d\n%s", args, code, out)
			}
			out = strings.ReplaceAll(out, dir, "$DIR")
			if got := sha256Hex([]byte(out)); got != tt.wantOut {
				t.Errorf("stdout sha256 = %s, want %s\n%s", got, tt.wantOut, out)
			}
			if tt.files {
				if got := hashTree(t, dir); got != tt.wantFiles {
					t.Errorf("metrics+trace files sha256 = %s, want %s", got, tt.wantFiles)
				}
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashTree digests every regular file under root: each file's relative
// path and contents, in sorted path order.
func hashTree(t *testing.T, root string) string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel) + "\n"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
