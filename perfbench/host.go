package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"greedy80211/internal/runner"
)

// host is the provenance every result carries: what ran, where, and at
// which parallelism.
type host struct {
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	RunnerLimit int    `json:"runner_limit"`
	GoVersion   string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary ("unknown" when
	// built outside a repository); SourceSHA256 fingerprints the Go
	// sources it was built from, so results stay attributable either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func hostInfo(root string) host {
	return host{
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RunnerLimit:  runner.Limit(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// total over user, nice, system, idle, iowait, irq, softirq and steal,
// and steal alone, the time the hypervisor ran other guests instead.
// Both are zero where the file is unreadable.
func cpuTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every .go, go.mod and .json file under root (names
// and contents, in sorted order), skipping dot-directories such as the
// build directory.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".json":
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
