package analytic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"greedy80211/internal/phys"
)

// The naive forms of the Equations 1–2 race: one full mixture sum per
// backoff value, in sorted-support order. They are the oracle the
// table-driven SendProbabilities and raceScales must match bit for bit.

func naiveMixAtLeast(d CWDist, x int) float64 {
	var p float64
	for _, cw := range d.sortedCWs() {
		p += d[cw] * backoffCDFAtLeast(cw, x)
	}
	return p
}

func naiveMixAtMost(d CWDist, x int) float64 {
	var p float64
	for _, cw := range d.sortedCWs() {
		p += d[cw] * backoffCDFAtMost(cw, x)
	}
	return p
}

func naiveSendProbabilities(gs, ns CWDist, vSlots int) (pGS, pNS float64) {
	for _, cwGS := range gs.sortedCWs() {
		wGS := gs[cwGS]
		for i := 0; i <= cwGS; i++ {
			pI := wGS / float64(cwGS+1)
			pGS += pI * naiveMixAtLeast(ns, i-vSlots-1)
			pNS += pI * naiveMixAtMost(ns, i-vSlots+1)
		}
	}
	return pGS, pNS
}

func naiveRaceScales(classes []Class, chains []ChainResult) ([]float64, error) {
	scales := make([]float64, len(classes))
	for i := range scales {
		scales[i] = 1
	}
	g := -1
	for i, c := range classes {
		if c.InflateSlots > 0 {
			g = i
		}
	}
	if g < 0 {
		return scales, nil
	}
	fair := make(CWDist)
	nFair := 0
	for i, c := range classes {
		if i == g || c.RaceExempt {
			continue
		}
		for _, cw := range chains[i].Dist.sortedCWs() {
			fair[cw] += chains[i].Dist[cw] * float64(c.N)
		}
		nFair += c.N
	}
	if nFair == 0 {
		return scales, nil
	}
	if err := fair.Normalize(); err != nil {
		return nil, err
	}
	pFairWins := func(v int) float64 {
		var pF float64
		for _, cwG := range chains[g].Dist.sortedCWs() {
			wG := chains[g].Dist[cwG]
			for i := 0; i <= cwG; i++ {
				pI := wG / float64(cwG+1)
				term := 1 - math.Pow(naiveMixAtLeast(fair, i-v+2), float64(nFair))
				if term > 0 {
					pF += pI * term
				}
			}
		}
		return pF
	}
	base := pFairWins(0)
	if base <= 0 {
		return nil, fmt.Errorf("degenerate NAV race")
	}
	s := math.Min(1, math.Max(0, pFairWins(classes[g].InflateSlots)/base))
	for i, c := range classes {
		if i != g && !c.RaceExempt {
			scales[i] = s
		}
	}
	return scales, nil
}

// randomMixture draws a normalized CW mixture of 1–8 entries from 0, the
// 802.11b chain stages and arbitrary windows, all at most maxCW.
func randomMixture(r *rand.Rand, maxCW int) CWDist {
	stages := []int{0, 7, 15, 31, 63, 127, 255, 511, 1023}
	d := make(CWDist)
	n := 1 + r.Intn(8)
	if n > maxCW+1 {
		n = maxCW + 1
	}
	for len(d) < n {
		cw := r.Intn(maxCW + 1)
		if r.Intn(2) == 0 {
			cw = stages[r.Intn(len(stages))]
		}
		if cw <= maxCW {
			d[cw] = 0.01 + r.Float64()
		}
	}
	if err := d.Normalize(); err != nil {
		panic(err)
	}
	return d
}

// raceCase is one random Equations 1–2 race: a greedy mixture, fair
// classes of 1–30 stations in total (one optionally race-exempt), and a
// head start v of 0–200 slots. Small window caps make v exceed every CW.
type raceCase struct {
	classes []Class
	chains  []ChainResult
	v       int
}

func (raceCase) Generate(r *rand.Rand, _ int) reflect.Value {
	caps := []int{3, 31, 255, 1023}
	maxCW := caps[r.Intn(len(caps))]
	c := raceCase{v: r.Intn(201)}
	c.classes = []Class{{Name: "greedy", N: 1, InflateSlots: c.v}}
	c.chains = []ChainResult{{Dist: randomMixture(r, maxCW)}}
	for left := 1 + r.Intn(30); left > 0; {
		n := 1 + r.Intn(left)
		left -= n
		c.classes = append(c.classes, Class{Name: "fair", N: n})
		c.chains = append(c.chains, ChainResult{Dist: randomMixture(r, maxCW)})
	}
	if r.Intn(3) == 0 {
		c.classes = append(c.classes, Class{Name: "exempt", N: 1, RaceExempt: true})
		c.chains = append(c.chains, ChainResult{Dist: randomMixture(r, maxCW)})
	}
	return reflect.ValueOf(c)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestPropertyRaceScalesMatchNaive(t *testing.T) {
	f := func(c raceCase) bool {
		got, gotErr := raceScales(c.classes, c.chains)
		want, wantErr := naiveRaceScales(c.classes, c.chains)
		if (gotErr != nil) != (wantErr != nil) {
			t.Logf("v=%d: error %v, naive %v", c.v, gotErr, wantErr)
			return false
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Logf("v=%d class %d: scale %v, naive %v", c.v, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertySendProbabilitiesMatchNaive(t *testing.T) {
	f := func(c raceCase) bool {
		gs, ns := c.chains[0].Dist, c.chains[1].Dist
		pGS, pNS, err := SendProbabilities(gs, ns, c.v)
		if err != nil {
			t.Log(err)
			return false
		}
		wGS, wNS := naiveSendProbabilities(gs, ns, c.v)
		if !sameBits(pGS, wGS) || !sameBits(pNS, wNS) {
			t.Logf("v=%d: (%v, %v), naive (%v, %v)", c.v, pGS, pNS, wGS, wNS)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression: SendProbabilities once summed the greedy mixture in map
// order, so repeated calls on one multi-entry mixture differed in the
// last ulp and the Fig 3 model series was not byte-identical run to run.
func TestSendingRatioRepeatable(t *testing.T) {
	gs := CWDist{31: 0.35, 63: 0.25, 127: 0.15, 255: 0.1, 511: 0.1, 1023: 0.05}
	ns := CWDist{31: 0.5, 63: 0.3, 127: 0.2}
	first, err := SendingRatio(gs, ns, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r, err := SendingRatio(gs, ns, 17)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(r, first) {
			t.Fatalf("call %d: ratio %v (bits %x), first %v (bits %x)",
				i, r, math.Float64bits(r), first, math.Float64bits(first))
		}
	}
}

// BenchmarkRaceScales times one race evaluation at the Fig 1 attack
// point (one fair UDP pair against a 0.6 ms CTS inflator), with both
// chains solved at a typical fixed-point collision probability.
func BenchmarkRaceScales(b *testing.B) {
	p := phys.Params80211B()
	m := udpNAVModel(p, 1, msToSlots(p, 0.6))
	chains := make([]ChainResult, len(m.Classes))
	for i, c := range m.Classes {
		cr, err := c.Chain.Solve(0.25)
		if err != nil {
			b.Fatal(err)
		}
		chains[i] = cr
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := raceScales(m.Classes, chains); err != nil {
			b.Fatal(err)
		}
	}
}
