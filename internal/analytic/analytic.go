// Package analytic implements the paper's closed-form models: the
// NAV-inflation send-probability model of Equations 1 and 2 (validated in
// Fig 3), the BER→FER mapping of Table III, and the address-preservation
// probabilities behind Table I.
package analytic

import (
	"fmt"
	"math"
	"sort"
)

// CWDist is a probability distribution over contention-window values (the
// inclusive upper bound of the uniform backoff draw). It is typically
// measured from a simulation run's CW samples.
type CWDist map[int]float64

// Normalize scales the distribution to sum to one. It returns an error for
// an empty or non-positive distribution.
func (d CWDist) Normalize() error {
	// Summing in sorted-support order keeps the result bit-identical
	// across runs (map iteration order would perturb the last ulp).
	var sum float64
	for _, cw := range d.sortedCWs() {
		p := d[cw]
		if cw < 0 || p < 0 {
			return fmt.Errorf("analytic: invalid CW entry %d -> %v", cw, p)
		}
		sum += p
	}
	if sum <= 0 {
		return fmt.Errorf("analytic: empty CW distribution")
	}
	for cw := range d {
		d[cw] /= sum
	}
	return nil
}

// FromSamples builds a CWDist from observed CW draws.
func FromSamples(samples []int) CWDist {
	d := make(CWDist)
	for _, cw := range samples {
		d[cw]++
	}
	if len(samples) > 0 {
		for cw := range d {
			d[cw] /= float64(len(samples))
		}
	}
	return d
}

// Single returns the distribution concentrated at one CW value.
func Single(cw int) CWDist { return CWDist{cw: 1} }

// sortedCWs returns the distribution's support in ascending order. Every
// sum over a mixture iterates in this order so results are bit-identical
// across runs — the report gate diffs model output byte-for-byte.
func (d CWDist) sortedCWs() []int {
	cws := make([]int, 0, len(d))
	for cw := range d {
		cws = append(cws, cw)
	}
	sort.Ints(cws)
	return cws
}

// backoffCDFAtLeast reports Pr[B ≥ x] for B uniform on [0..cw].
func backoffCDFAtLeast(cw, x int) float64 {
	switch {
	case x <= 0:
		return 1
	case x > cw:
		return 0
	default:
		return float64(cw-x+1) / float64(cw+1)
	}
}

// backoffCDFAtMost reports Pr[B ≤ x] for B uniform on [0..cw].
func backoffCDFAtMost(cw, x int) float64 {
	switch {
	case x < 0:
		return 0
	case x >= cw:
		return 1
	default:
		return float64(x+1) / float64(cw+1)
	}
}

// mixture is a CWDist's support in ascending order with its weights in
// parallel, so hot loops sum without sorting or map lookups.
type mixture struct {
	cws     []int
	weights []float64
}

func (d CWDist) mixture() mixture {
	m := mixture{cws: d.sortedCWs(), weights: make([]float64, len(d))}
	for j, cw := range m.cws {
		m.weights[j] = d[cw]
	}
	return m
}

// cdfTable holds x ↦ Σ_j w_j·cdf(cw_j, x) for x in [lo, lo+len(vals)),
// a range outside which the sum is constant: at clamps x into it.
type cdfTable struct {
	lo   int
	vals []float64
}

func (t cdfTable) at(x int) float64 {
	k := x - t.lo
	if k < 0 {
		k = 0
	} else if k >= len(t.vals) {
		k = len(t.vals) - 1
	}
	return t.vals[k]
}

// tabulate evaluates the mixture's CDF sum on [lo, hi], each entry summed
// in ascending-CW order so it is bit-identical across runs — the report
// gate diffs model output byte-for-byte.
func (m mixture) tabulate(lo, hi int, cdf func(cw, x int) float64) cdfTable {
	t := cdfTable{lo: lo, vals: make([]float64, hi-lo+1)}
	for k := range t.vals {
		var p float64
		for j, cw := range m.cws {
			p += m.weights[j] * cdf(cw, lo+k)
		}
		t.vals[k] = p
	}
	return t
}

// atLeast tabulates Pr[B ≥ x] under the mixture: every draw is ≥ 0, and
// none exceeds the largest CW.
func (m mixture) atLeast() cdfTable {
	return m.tabulate(0, m.cws[len(m.cws)-1]+1, backoffCDFAtLeast)
}

// atMost tabulates Pr[B ≤ x] under the mixture: no draw is below 0, and
// every draw is at most the largest CW.
func (m mixture) atMost() cdfTable {
	return m.tabulate(-1, m.cws[len(m.cws)-1], backoffCDFAtMost)
}

// SendProbabilities evaluates Equations 1 and 2: the per-round
// transmission probabilities of the greedy sender GS and the normal sender
// NS when the greedy receiver's NAV inflation gives GS a vSlots head start.
//
//	Pr[GS sends] = Pr[B_GS ≤ B_NS + v + 1]
//	Pr[NS sends] = Pr[B_NS ≤ B_GS − v + 1]
func SendProbabilities(gs, ns CWDist, vSlots int) (pGS, pNS float64, err error) {
	if len(gs) == 0 || len(ns) == 0 {
		return 0, 0, fmt.Errorf("analytic: empty CW distribution")
	}
	g, n := gs.mixture(), ns.mixture()
	atLeast, atMost := n.atLeast(), n.atMost()
	for k, cwGS := range g.cws {
		pI := g.weights[k] / float64(cwGS+1) // Pr[B_GS = i]
		for i := 0; i <= cwGS; i++ {
			// Eq 1: GS sends when B_GS ≤ B_NS + v + 1 ⇔ B_NS ≥ i − v − 1.
			pGS += pI * atLeast.at(i-vSlots-1)
			// Eq 2: NS sends when B_NS ≤ B_GS − v + 1 = i − v + 1.
			pNS += pI * atMost.at(i-vSlots+1)
		}
	}
	return pGS, pNS, nil
}

// SendingRatio reports GS's share of transmissions, pGS/(pGS+pNS) — the
// quantity Fig 3 plots against the measured RTS ratio.
func SendingRatio(gs, ns CWDist, vSlots int) (float64, error) {
	pGS, pNS, err := SendProbabilities(gs, ns, vSlots)
	if err != nil {
		return 0, err
	}
	if pGS+pNS == 0 {
		return 0, fmt.Errorf("analytic: both send probabilities zero")
	}
	return pGS / (pGS + pNS), nil
}

// --- Table III: BER → FER ------------------------------------------------

// Error-unit counts reproducing Table III exactly (see DESIGN.md §2).
const (
	UnitsACKCTS  = 38
	UnitsRTS     = 44
	UnitsTCPACK  = 112
	UnitsTCPData = 1130
)

// FER evaluates the Table III error model: 1 − (1 − BER)^units.
func FER(ber float64, units int) float64 {
	if ber <= 0 || units <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return 1 - math.Pow(1-ber, float64(units))
}

// FERRow is one Table III row.
type FERRow struct {
	BER     float64
	ACKCTS  float64
	RTS     float64
	TCPACK  float64
	TCPData float64
}

// TableIII evaluates the model at the paper's five BER operating points.
func TableIII() []FERRow {
	bers := []float64{1e-5, 2e-4, 3.2e-4, 4.4e-4, 8e-4}
	rows := make([]FERRow, 0, len(bers))
	for _, ber := range bers {
		rows = append(rows, FERRow{
			BER:     ber,
			ACKCTS:  FER(ber, UnitsACKCTS),
			RTS:     FER(ber, UnitsRTS),
			TCPACK:  FER(ber, UnitsTCPACK),
			TCPData: FER(ber, UnitsTCPData),
		})
	}
	return rows
}

// --- Table I: address preservation under memoryless corruption -----------

// AddrPreservation reports, for a frame of frameBytes with independent
// per-byte corruption probability p, the probability that (a) the 6-byte
// destination address is intact given the frame is corrupted and (b) both
// 6-byte addresses are intact given the destination is. A near-one result
// for realistic sizes is what makes fake ACKs feasible (Table I).
func AddrPreservation(p float64, frameBytes int) (dstGivenCorrupted, srcGivenDst float64) {
	if p <= 0 || frameBytes <= 16 {
		return 1, 1
	}
	q := 1 - p
	pFrame := 1 - math.Pow(q, float64(frameBytes))
	if pFrame == 0 {
		return 1, 1
	}
	// Dst intact AND frame corrupted: dst clean, some other byte hit.
	dstClean := math.Pow(q, 6)
	restHit := 1 - math.Pow(q, float64(frameBytes-6))
	dstGivenCorrupted = dstClean * restHit / pFrame
	// Src intact given dst intact and frame corrupted: among the
	// remaining frameBytes−6 bytes, src's 6 clean and some other hit.
	srcClean := math.Pow(q, 6)
	rest2Hit := 1 - math.Pow(q, float64(frameBytes-12))
	srcGivenDst = srcClean * rest2Hit / restHit
	return dstGivenCorrupted, srcGivenDst
}
