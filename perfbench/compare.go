package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare reads two sets of results (results.jsonl records) and the
// bounds in BENCHMARK.json. It prints, per workload and end-to-end
// metric, each side's median and quartiles and a verdict, and exits 1
// when any metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare base.jsonl head.jsonl")
		return 2
	}
	const benchPath = "BENCHMARK.json"
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", benchPath, err)
		return 1
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workloads := map[string]bool{}
	for w := range base {
		workloads[w] = true
	}
	for w := range head {
		workloads[w] = true
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)

	worse := false
	fmt.Fprintf(stdout, "%-10s %-17s %4s %-34s %4s %-34s %8s  %s\n",
		"workload", "metric", "n", "base median [q1, q3]", "n", "head median [q1, q3]", "change", "verdict")
	for _, w := range names {
		for _, m := range bench.EndToEnd {
			b, h := values(base[w], m.Name), values(head[w], m.Name)
			v := verdict(b, h, m.Better == "higher", m.Bound)
			worse = worse || v == "worse"
			change := math.NaN()
			if len(b) > 0 && len(h) > 0 && median(b) != 0 {
				change = (median(h) - median(b)) / median(b)
			}
			fmt.Fprintf(stdout, "%-10s %-17s %4d %-34s %4d %-34s %+7.1f%%  %s\n",
				w, m.Name, len(b), fmtQuart(b), len(h), fmtQuart(h), 100*change, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// readRecords loads the correct untraced runs of a results log, by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 && r.Result.Correct {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func fmtQuart(xs []float64) string {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return fmt.Sprintf("%.5g", xs[0])
		}
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// verdict judges head against base for one metric:
//
//   - unresolved: fewer than two runs a side, or either side's quartile
//     spread exceeds the bound and the runs overlap;
//   - worse: head's median is worse than base's by more than the bound,
//     or (spread too wide) every head run is worse than every base run;
//   - better: head wins at least nine tenths of the run pairs and its
//     median beats base's by more than base's quartile spread, or (spread
//     too wide) every head run is better than every base run;
//   - within bound otherwise.
func verdict(base, head []float64, higherIsBetter bool, bound float64) string {
	if len(base) < 2 || len(head) < 2 {
		return "unresolved"
	}
	better := func(a, b float64) bool { // a better than b
		if higherIsBetter {
			return a > b
		}
		return a < b
	}
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
			allWorse = allWorse && better(b, h)
		}
	}
	mb, mh := median(base), median(head)
	bq1, bq3 := quartiles(base)
	hq1, hq3 := quartiles(head)
	if (bq3-bq1)/math.Abs(mb) > bound || (hq3-hq1)/math.Abs(mh) > bound {
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	worseBy := (mh - mb) / math.Abs(mb)
	if higherIsBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return "worse"
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	if 10*wins >= 9*pairs && better(mh, mb) && math.Abs(mh-mb) > bq3-bq1 {
		return "better"
	}
	return "within bound"
}
