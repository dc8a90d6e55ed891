package analytic

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Property: FromCounts gives each window its count over the total,
// float64(n)/float64(total) bit for bit, on strictly ascending windows.
func TestPropertyFromCountsMatchesRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0))
	for trial := 0; trial < 300; trial++ {
		hist := make(map[int]int64)
		for n := rng.Intn(12); n > 0; n-- {
			hist[rng.Intn(1024)] += rng.Int63n(1 << uint(1+rng.Intn(40)))
		}
		var total int64
		for _, n := range hist {
			total += n
		}
		d := FromCounts(hist)
		if total == 0 {
			if len(d) != 0 {
				t.Fatalf("trial %d: empty histogram gave %v", trial, d)
			}
			continue
		}
		if len(d) != len(hist) {
			t.Fatalf("trial %d: %d windows for %d histogram bins", trial, len(d), len(hist))
		}
		for j, w := range d {
			if j > 0 && w.CW <= d[j-1].CW {
				t.Fatalf("trial %d: windows not strictly ascending: %v", trial, d)
			}
			if want := float64(hist[w.CW]) / float64(total); !sameBits(w.P, want) {
				t.Fatalf("trial %d: cw=%d weight %v, want %v", trial, w.CW, w.P, want)
			}
		}
	}
}

// Property: FromCounts already returns a normalized distribution, so a
// further Normalize must be the identity (and must not error); and
// Single(cw) must equal the one-count FromCounts.
func TestCWDistNormalizeFromCountsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	cwPool := []int{0, 7, 15, 31, 63, 127, 255, 511, 1023}
	for trial := 0; trial < 200; trial++ {
		hist := make(map[int]int64)
		for n := 1 + rng.Intn(500); n > 0; n-- {
			hist[cwPool[rng.Intn(len(cwPool))]]++
		}
		d := FromCounts(hist)
		if sum := distSum(d); math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: FromCounts sums to %v", trial, sum)
		}
		before := slices.Clone(d)
		if err := d.Normalize(); err != nil {
			t.Fatalf("trial %d: Normalize of normalized dist errored: %v", trial, err)
		}
		if len(d) != len(before) {
			t.Fatalf("trial %d: Normalize changed support size", trial)
		}
		for j, w := range before {
			if d[j].CW != w.CW || math.Abs(d[j].P-w.P) > 1e-12 {
				t.Fatalf("trial %d: Normalize moved mass at cw=%d: %v -> %v", trial, w.CW, w, d[j])
			}
		}
	}
}

func TestSingleMatchesOneCountFromCounts(t *testing.T) {
	for _, cw := range []int{0, 1, 31, 1023} {
		s, f := Single(cw), FromCounts(map[int]int64{cw: 1})
		if want := (CWDist{{cw, 1}}); !slices.Equal(s, want) || !slices.Equal(f, want) {
			t.Errorf("cw=%d: Single %v, FromCounts %v, want %v", cw, s, f, want)
		}
	}
}

// invalidDists are the distributions Normalize, SendProbabilities and
// SendingRatio must all reject.
var invalidDists = map[string]CWDist{
	"empty":          {},
	"nil":            nil,
	"zero mass":      {{31, 0}},
	"negative cw":    {{-1, 1}},
	"negative wgt":   {{31, -0.5}, {63, 1.5}},
	"unsorted":       {{63, 0.5}, {31, 0.5}},
	"unsorted tail":  {{15, 0.2}, {255, 0.3}, {31, 0.5}},
	"repeated":       {{31, 0.5}, {31, 0.5}},
	"repeated later": {{15, 0.2}, {63, 0.3}, {63, 0.5}},
}

func TestCWDistNormalizeRejectsInvalid(t *testing.T) {
	for name, d := range invalidDists {
		if err := d.Normalize(); err == nil {
			t.Errorf("%s distribution accepted", name)
		}
	}
}

// add keeps the windows strictly ascending and sums a repeated window's
// weights in call order, as a map's m[cw] += p did.
func TestCWDistAddMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(0xadd))
	for trial := 0; trial < 200; trial++ {
		var d CWDist
		m := make(map[int]float64)
		for n := 1 + rng.Intn(40); n > 0; n-- {
			cw, p := rng.Intn(64), rng.Float64()
			d.add(cw, p)
			m[cw] += p
		}
		if len(d) != len(m) {
			t.Fatalf("trial %d: %d windows, map has %d", trial, len(d), len(m))
		}
		for j, w := range d {
			if j > 0 && w.CW <= d[j-1].CW {
				t.Fatalf("trial %d: windows not strictly ascending: %v", trial, d)
			}
			if !sameBits(w.P, m[w.CW]) {
				t.Fatalf("trial %d: cw=%d weight %v, map %v", trial, w.CW, w.P, m[w.CW])
			}
		}
	}
}
