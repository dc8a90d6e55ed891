package analytic

import (
	"math"
	"testing"

	"greedy80211/internal/phys"
)

// bianchiTau is the closed-form JSAC-2000 tau the scalar Saturation model
// uses: W is the CWmin+1 window, m the number of CW doublings.
func bianchiTau(p float64, cwMin, cwMax int) float64 {
	w := float64(cwMin + 1)
	m := 0
	for cw := cwMin; cw < cwMax; cw = 2*(cw+1) - 1 {
		m++
	}
	num := 2 * (1 - 2*p)
	den := (1-2*p)*(w+1) + p*w*(1-math.Pow(2*p, float64(m)))
	return num / den
}

func TestChainReducesToBianchi(t *testing.T) {
	// The infinite-retry chain must reproduce Bianchi's closed form to
	// machine precision across failure probabilities and bands.
	for _, band := range []phys.Params{phys.Params80211B(), phys.Params80211A()} {
		c := Chain{CWMin: band.CWMin, CWMax: band.CWMax}
		for _, q := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.6, 0.9} {
			got, err := c.Solve(q)
			if err != nil {
				t.Fatalf("Solve(%v): %v", q, err)
			}
			checkChainDist(t, got.Dist)
			want := bianchiTau(q, band.CWMin, band.CWMax)
			if math.Abs(got.Tau-want) > 1e-12*want {
				t.Errorf("CW [%d,%d] q=%v: chain tau %v != Bianchi %v",
					band.CWMin, band.CWMax, q, got.Tau, want)
			}
		}
	}
}

func TestChainZeroFailure(t *testing.T) {
	c := Chain{CWMin: 31, CWMax: 1023}
	r, err := c.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 33.0; math.Abs(r.Tau-want) > 1e-15 {
		t.Errorf("tau at q=0: %v, want %v", r.Tau, want)
	}
	if r.AvgCW != 31 {
		t.Errorf("AvgCW at q=0: %v, want 31 (never leaves CWmin)", r.AvgCW)
	}
	if r.AvgBackoffSlots != 15.5 {
		t.Errorf("AvgBackoffSlots at q=0: %v, want 15.5", r.AvgBackoffSlots)
	}
	if len(r.Dist) != 1 || r.Dist[0].CW != 31 || math.Abs(r.Dist[0].P-1) > 1e-15 {
		t.Errorf("Dist at q=0: %v, want all mass at 31", r.Dist)
	}
	if r.DropProb != 0 {
		t.Errorf("infinite chain DropProb = %v", r.DropProb)
	}
}

func TestChainFiniteRetry(t *testing.T) {
	// One attempt: the window never doubles regardless of q.
	one := Chain{CWMin: 31, CWMax: 1023, RetryLimit: 1}
	r, err := one.Solve(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgCW != 31 || math.Abs(r.Tau-2.0/33.0) > 1e-15 {
		t.Errorf("R=1 chain: tau %v AvgCW %v, want CWmin-pinned", r.Tau, r.AvgCW)
	}
	if want := 0.4; math.Abs(r.DropProb-want) > 1e-15 {
		t.Errorf("R=1 DropProb = %v, want %v", r.DropProb, want)
	}

	// Finite retry truncates the deep (large-CW) stages, so at equal q a
	// shorter chain is more aggressive: larger tau, smaller average CW.
	q := 0.3
	prevTau, prevCW := 0.0, 1e18
	for _, limit := range []int{7, 4, 2, 1} {
		c := Chain{CWMin: 31, CWMax: 1023, RetryLimit: limit}
		r, err := c.Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		checkChainDist(t, r.Dist)
		if r.Tau <= prevTau {
			t.Errorf("R=%d: tau %v did not grow as retries shrank", limit, r.Tau)
		}
		if r.AvgCW >= prevCW {
			t.Errorf("R=%d: AvgCW %v did not shrink as retries shrank", limit, r.AvgCW)
		}
		if want := math.Pow(q, float64(limit)); math.Abs(r.DropProb-want) > 1e-15 {
			t.Errorf("R=%d DropProb = %v, want %v", limit, r.DropProb, want)
		}
		prevTau, prevCW = r.Tau, r.AvgCW
	}
}

func TestChainAvgCWMonotoneInFailure(t *testing.T) {
	c := Chain{CWMin: 15, CWMax: 1023, RetryLimit: 7}
	prev := -1.0
	for q := 0.0; q < 0.95; q += 0.05 {
		r, err := c.Solve(q)
		if err != nil {
			t.Fatalf("q=%v: %v", q, err)
		}
		if r.AvgCW <= prev {
			t.Errorf("AvgCW not monotone at q=%v: %v <= %v", q, r.AvgCW, prev)
		}
		checkChainDist(t, r.Dist)
		prev = r.AvgCW
	}
}

// checkChainDist requires a solved chain's mixture to sum to one on
// strictly ascending windows — stages capped at CWMax share one entry.
func checkChainDist(t *testing.T, d CWDist) {
	t.Helper()
	if sum := distSum(d); math.Abs(sum-1) > 1e-12 {
		t.Errorf("Dist %v sums to %v", d, sum)
	}
	for j := 1; j < len(d); j++ {
		if d[j].CW <= d[j-1].CW {
			t.Errorf("Dist %v: windows not strictly ascending", d)
		}
	}
}

func distSum(d CWDist) float64 {
	var s float64
	for _, w := range d {
		s += w.P
	}
	return s
}

func TestChainSolveGuards(t *testing.T) {
	good := Chain{CWMin: 31, CWMax: 1023}
	for _, q := range []float64{math.NaN(), -0.1, 1, 1.5} {
		if _, err := good.Solve(q); err == nil {
			t.Errorf("q=%v accepted", q)
		}
	}
	for _, c := range []Chain{
		{CWMin: 0, CWMax: 1023},
		{CWMin: 31, CWMax: 15},
		{CWMin: 31, CWMax: 1023, RetryLimit: -1},
	} {
		if _, err := c.Solve(0.1); err == nil {
			t.Errorf("chain %+v accepted", c)
		}
	}
}
