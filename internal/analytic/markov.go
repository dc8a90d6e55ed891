package analytic

import (
	"fmt"
	"math"
)

// This file holds the per-backoff-stage Markov chain that replaces the
// scalar Bianchi fixed point: stage i of the chain is "the station is in
// its i-th transmission attempt for the head-of-line frame", with a
// contention window W_i that doubles from CWmin up to CWmax and, past the
// retry limit, a drop that resets the chain to stage 0. Solving the chain
// at a given per-attempt failure probability yields the station's per-slot
// transmission probability tau, its draw-weighted average contention
// window (the quantity the simulator's AvgCW counter measures), and the
// full CW mixture that the Equations 1–2 race model consumes.
//
// The derivation, perturbations, and accuracy against simulation are
// documented in MODEL.md at the repo root.

// Chain describes one station class's backoff chain.
type Chain struct {
	// CWMin and CWMax are the inclusive backoff-draw upper bounds
	// (802.11b: 31/1023).
	CWMin, CWMax int
	// RetryLimit is the number of transmission attempts per frame before
	// the frame is dropped and the window resets (stages 0..RetryLimit-1).
	// Zero means infinite retries — the classic Bianchi chain, to which
	// this solver then reduces exactly.
	RetryLimit int
}

// ChainResult is the stationary solution of the chain at a fixed
// per-attempt failure probability.
type ChainResult struct {
	// Tau is the per-slot transmission probability.
	Tau float64
	// AvgCW is the draw-weighted mean contention window in slots — each
	// transmission attempt contributes one backoff draw at its stage's
	// window, which is exactly what the simulator's AvgCW counter sums.
	AvgCW float64
	// AvgBackoffSlots is the draw-weighted mean backoff draw, AvgCW/2.
	AvgBackoffSlots float64
	// DropProb is the probability a frame exhausts the retry limit
	// (zero for the infinite-retry chain).
	DropProb float64
	// Dist is the draw-weighted CW mixture, suitable for the
	// SendProbabilities race of Equations 1–2.
	Dist CWDist
}

// validate rejects chains the solver cannot represent.
func (c Chain) validate() error {
	if c.CWMin < 1 || c.CWMax < c.CWMin {
		return fmt.Errorf("analytic: chain CW bounds [%d, %d]", c.CWMin, c.CWMax)
	}
	if c.RetryLimit < 0 {
		return fmt.Errorf("analytic: negative retry limit %d", c.RetryLimit)
	}
	return nil
}

// stages returns the per-stage CW sequence W_0..W_{R-1} (doubling, capped
// at CWMax). For the infinite-retry chain it returns stages up to and
// including the first capped one; the geometric tail beyond it repeats
// the last entry.
func (c Chain) stages() []int {
	var ws []int
	cw := c.CWMin
	n := c.RetryLimit
	for i := 0; ; i++ {
		ws = append(ws, cw)
		if n == 0 && cw >= c.CWMax {
			return ws // infinite chain: tail stays at CWMax
		}
		if n > 0 && i == n-1 {
			return ws
		}
		if cw < c.CWMax {
			cw = 2*(cw+1) - 1
			if cw > c.CWMax {
				cw = c.CWMax
			}
		}
	}
}

// Solve computes the stationary chain solution when each transmission
// attempt fails (and doubles the window) with probability q. The failure
// probability is the *perceived* one: a fake-ACK greedy receiver that
// masks a fraction of real collisions simply feeds a smaller q here.
func (c Chain) Solve(q float64) (ChainResult, error) {
	if err := c.validate(); err != nil {
		return ChainResult{}, err
	}
	if math.IsNaN(q) || q < 0 || q >= 1 {
		return ChainResult{}, fmt.Errorf("analytic: failure probability %v outside [0, 1)", q)
	}
	ws := c.stages()

	// Stationary stage-visit weights r_i = q^i. A visit to stage i draws
	// a backoff uniform on [0..W_i] — a window of W_i+1 slots — and in
	// Bianchi's normalization occupies (window+1)/2 = (W_i+2)/2 chain
	// states on average. tau = Σ r_i / Σ r_i (W_i+2)/2, which reduces
	// exactly to the closed-form Bianchi tau for the infinite chain.
	var visits, occupancy, cwWeighted float64
	dist := make(CWDist, 0, len(ws))
	r := 1.0
	for i, w := range ws {
		ri := r
		if c.RetryLimit == 0 && i == len(ws)-1 {
			// Infinite-retry tail: stages i, i+1, ... all at W = CWMax.
			ri = r / (1 - q)
		}
		visits += ri
		occupancy += ri * float64(w+2) / 2
		cwWeighted += ri * float64(w)
		if ri > 0 {
			dist.add(w, ri)
		}
		r *= q
	}
	if occupancy <= 0 || math.IsNaN(occupancy) {
		return ChainResult{}, fmt.Errorf("analytic: degenerate chain occupancy")
	}
	if err := dist.Normalize(); err != nil {
		return ChainResult{}, err
	}
	res := ChainResult{
		Tau:             visits / occupancy,
		AvgCW:           cwWeighted / visits,
		AvgBackoffSlots: cwWeighted / visits / 2,
		Dist:            dist,
	}
	if c.RetryLimit > 0 {
		res.DropProb = math.Pow(q, float64(c.RetryLimit))
	}
	if math.IsNaN(res.Tau) || res.Tau <= 0 || res.Tau > 1 {
		return ChainResult{}, fmt.Errorf("analytic: chain tau %v outside (0, 1]", res.Tau)
	}
	return res, nil
}
