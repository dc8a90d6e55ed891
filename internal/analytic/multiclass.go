package analytic

import (
	"fmt"
	"math"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// This file couples per-class backoff chains (markov.go) into a
// heterogeneous fixed point: a population of fair stations plus greedy
// classes whose dynamics are perturbed by NAV inflation (competitors
// frozen for the inflated reservation, per Equations 1–2) or fake-ACK
// CW-reset suppression (the chain sees only the unmasked fraction of its
// real collisions). The solver iterates per-class collision probabilities
// with damping and hard convergence guards, then evaluates slot-time
// accounting to per-class goodput and airtime. MODEL.md derives the
// equations and reports accuracy against simulation.

// Class is one homogeneous station population in the model.
type Class struct {
	// Name labels the class in results ("fair", "greedy", ...).
	Name string
	// N is the number of stations in the class, ≥ 1.
	N int
	// Chain is the class's backoff chain.
	Chain Chain
	// PayloadBytes is application payload per data frame; OverheadBytes
	// is transport/network framing carried on the air above it (28 for
	// UDP/IP, 40 for TCP/IP).
	PayloadBytes, OverheadBytes int
	// InflateSlots, when positive, marks this class greedy via NAV
	// inflation: its exchanges carry a reservation that freezes every
	// other station for InflateSlots backoff slots, giving this class
	// the Equations 1–2 head start in every contention round. At most
	// one class may inflate.
	InflateSlots int
	// SuppressCWGrowth in [0, 1] is the fraction of this class's real
	// transmission failures masked by a fake-ACK greedy receiver: the
	// backoff chain perceives only (1−SuppressCWGrowth) of them, so at 1
	// the window never leaves CWmin while the true collision probability
	// still destroys the frames.
	SuppressCWGrowth float64
	// RaceExempt marks a class on the greedy side of a NAV-inflation
	// attack that is not itself the inflator — e.g. the greedy TCP
	// flow's reverse-ACK stream, which rides inside the inflated
	// reservations instead of being frozen by them.
	RaceExempt bool
}

// Model is a heterogeneous saturated DCF network.
type Model struct {
	// Params carries band constants.
	Params phys.Params
	// Classes is the station mix.
	Classes []Class
	// UseRTSCTS selects the protected exchange for every class.
	UseRTSCTS bool
	// Hidden switches the collision structure to mutually hidden
	// senders: stations cannot carrier-sense each other, so a frame is
	// lost when any competitor begins transmitting inside its
	// vulnerability window rather than in the same slot.
	Hidden bool
	// VulnSlots is the hidden-mode vulnerability window in backoff
	// slots. Zero derives 2×(data airtime)/slot — two full frame
	// airtimes, the textbook hidden-terminal window. The Predict
	// adapters install a smaller calibrated value because capture and
	// EIFS recovery in the simulator soften the textbook window (see
	// MODEL.md §5).
	VulnSlots int
	// MaxIter caps fixed-point iterations (default 1000), Tol is the
	// convergence residual on collision probabilities (default 1e-10),
	// Damping in (0, 1] is the update step (default 0.5).
	MaxIter int
	Tol     float64
	Damping float64
}

// ClassResult is the solved operating point of one class.
type ClassResult struct {
	Name string
	N    int
	// Tau is the class chain's per-slot transmission probability;
	// TauEffective folds in the NAV-inflation race (losers of the race
	// transmit proportionally less often).
	Tau, TauEffective float64
	// PCollision is the true per-attempt failure probability;
	// PPerceived is what the backoff chain sees after fake-ACK masking.
	PCollision, PPerceived float64
	// AvgCW and AvgBackoffSlots are draw-weighted chain averages, in
	// slots; DropProb is the retry-limit drop probability.
	AvgCW, AvgBackoffSlots, DropProb float64
	// PerStationBps is delivered application goodput per station;
	// AirtimeShare is the fraction of channel time spent on this
	// class's successful exchanges.
	PerStationBps float64
	AirtimeShare  float64
}

// ModelResult is the converged multi-class solution.
type ModelResult struct {
	Classes    []ClassResult
	TotalBps   float64
	Iterations int
	Residual   float64
}

// Class lookup by name; nil when absent.
func (r *ModelResult) Class(name string) *ClassResult {
	for i := range r.Classes {
		if r.Classes[i].Name == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// validate returns the inflating class's index (-1: none), or an error.
func (m Model) validate() (int, error) {
	if len(m.Classes) == 0 {
		return 0, fmt.Errorf("analytic: model with no classes")
	}
	g, inflaters := -1, 0
	for i, c := range m.Classes {
		if c.N < 1 {
			return 0, fmt.Errorf("analytic: class %q has %d stations", c.Name, c.N)
		}
		if c.PayloadBytes <= 0 {
			return 0, fmt.Errorf("analytic: class %q payload %d", c.Name, c.PayloadBytes)
		}
		if c.OverheadBytes < 0 {
			return 0, fmt.Errorf("analytic: class %q overhead %d", c.Name, c.OverheadBytes)
		}
		if c.SuppressCWGrowth < 0 || c.SuppressCWGrowth > 1 {
			return 0, fmt.Errorf("analytic: class %q CW suppression %v outside [0, 1]", c.Name, c.SuppressCWGrowth)
		}
		if err := c.Chain.validate(); err != nil {
			return 0, err
		}
		if c.InflateSlots > 0 {
			g = i
			inflaters++
		}
	}
	if inflaters > 1 {
		return 0, fmt.Errorf("analytic: %d inflating classes, at most 1 supported", inflaters)
	}
	if m.Hidden && inflaters > 0 {
		return 0, fmt.Errorf("analytic: hidden mode cannot combine with NAV inflation")
	}
	return g, nil
}

// exchangeTimes returns the success and collision durations of one
// class's data exchange.
func (m Model) exchangeTimes(c Class) (tSuccess, tCollision sim.Time) {
	p := m.Params
	macBytes := c.PayloadBytes + c.OverheadBytes + phys.DataHeaderBytes
	dataAir := p.TxDuration(macBytes, p.DataRateBps)
	ackAir := p.TxDuration(phys.ACKFrameBytes, p.BasicRateBps)
	if m.UseRTSCTS {
		rtsAir := p.TxDuration(phys.RTSFrameBytes, p.BasicRateBps)
		ctsAir := p.TxDuration(phys.CTSFrameBytes, p.BasicRateBps)
		tSuccess = rtsAir + p.SIFS + ctsAir + p.SIFS + dataAir + p.SIFS + ackAir + p.DIFS()
		tCollision = rtsAir + p.CTSTimeout() + p.DIFS()
	} else {
		tSuccess = dataAir + p.SIFS + ackAir + p.DIFS()
		tCollision = dataAir + p.ACKTimeout() + p.DIFS()
	}
	return tSuccess, tCollision
}

// raceScales evaluates the Equations 1–2 race between the inflating
// class g (negative when none inflates) and the pooled fair stations,
// returning the per-class factors by which NAV inflation rescales
// transmission rates: the victims' factor is pF(v)/pF(0), the rate at
// which any fair station still wins a contention round relative to the
// fair race.
func raceScales(classes []Class, chains []ChainResult, g int) ([]float64, error) {
	scales := make([]float64, len(classes))
	for i := range scales {
		scales[i] = 1
	}
	if g < 0 {
		return scales, nil
	}
	// Pool the fair stations' CW mixtures, weighted by population.
	var fair CWDist
	nFair := 0
	for i, c := range classes {
		if i == g || c.RaceExempt {
			continue
		}
		for _, w := range chains[i].Dist {
			fair.add(w.CW, w.P*float64(c.N))
		}
		nFair += c.N
	}
	if nFair == 0 {
		return scales, nil // greedy alone: nothing to race
	}
	if err := fair.Normalize(); err != nil {
		return nil, err
	}
	// Some fair station sends when min(B_F) ≤ B_GS − v + 1 (Eq 2 with the
	// head start v); the complement is every fair draw ≥ B_GS − v + 2.
	// fairWin.at(x) = 1 − Pr[B_F ≥ x]^nFair is the fair side's round-win
	// probability at x = B_GS − v + 2, tabulated once for both races.
	fairWin := fair.atLeast()
	for k, p := range fairWin.vals {
		fairWin.vals[k] = 1 - math.Pow(p, float64(nFair))
	}
	// Round-win probabilities against the minimum of nFair fair draws.
	pFairWins := func(v int) float64 {
		var pF float64
		for _, w := range chains[g].Dist {
			pI := w.P / float64(w.CW+1)
			for i := 0; i <= w.CW; i++ {
				if term := fairWin.at(i - v + 2); term > 0 {
					pF += pI * term
				}
			}
		}
		return pF
	}
	base := pFairWins(0)
	if base <= 0 {
		return nil, fmt.Errorf("analytic: degenerate NAV race (fair side never wins at v=0)")
	}
	// A head start can only hurt the fair side; clamp float residue.
	s := math.Min(1, math.Max(0, pFairWins(classes[g].InflateSlots)/base))
	for i, c := range classes {
		if i != g && !c.RaceExempt {
			scales[i] = s
		}
	}
	return scales, nil
}

// Solve runs the damped multi-class fixed point.
func (m Model) Solve() (*ModelResult, error) {
	gIdx, err := m.validate()
	if err != nil {
		return nil, err
	}
	maxIter := m.MaxIter
	if maxIter == 0 {
		maxIter = 1000
	}
	tol := m.Tol
	if tol == 0 {
		tol = 1e-10
	}
	damp := m.Damping
	if damp == 0 {
		damp = 0.5
	}
	if damp < 0 || damp > 1 {
		return nil, fmt.Errorf("analytic: damping %v outside (0, 1]", damp)
	}

	k := len(m.Classes)
	p := make([]float64, k) // true per-attempt collision probability
	for i := range p {
		p[i] = 0.1
	}
	chains := make([]ChainResult, k)
	tauEff := make([]float64, k)

	vuln := 1
	if m.Hidden {
		vuln = m.VulnSlots
		if vuln == 0 {
			// Textbook default: twice the (largest) data exchange airtime.
			var longest sim.Time
			for _, c := range m.Classes {
				ts, _ := m.exchangeTimes(c)
				if ts > longest {
					longest = ts
				}
			}
			vuln = int(2 * int64(longest) / int64(m.Params.SlotTime))
		}
		if vuln < 1 {
			vuln = 1
		}
	}

	// One full sweep at damping d: chains at the perceived failure
	// probability, NAV-race rescaling, coupled collision update.
	step := func(d float64) (float64, error) {
		for i, c := range m.Classes {
			perceived := p[i] * (1 - c.SuppressCWGrowth)
			cr, err := c.Chain.Solve(perceived)
			if err != nil {
				return 0, fmt.Errorf("analytic: class %q: %w", c.Name, err)
			}
			chains[i] = cr
		}
		scales, err := raceScales(m.Classes, chains, gIdx)
		if err != nil {
			return 0, err
		}
		for i := range m.Classes {
			tauEff[i] = chains[i].Tau * scales[i]
		}
		var residual float64
		for i, c := range m.Classes {
			exposure := 1.0
			for j, cj := range m.Classes {
				others := cj.N
				if i == j {
					others--
				}
				t := tauEff[j]
				// A victim transmits only on contention rounds it won —
				// rounds where the inflator's counter is still at least
				// the head start away — so the inflator's threat to a
				// victim is suppressed by the victim's own race factor.
				if j == gIdx && i != gIdx && scales[i] < 1 {
					t *= scales[i]
				}
				exposure *= math.Pow(1-t, float64(vuln*others))
			}
			next := 1 - exposure
			if next < 0 && next > -1e-9 {
				next = 0 // float residue from the exposure product
			}
			if math.IsNaN(next) || next < 0 || next >= 1 {
				return 0, fmt.Errorf("analytic: collision probability diverged to %v for class %q", next, c.Name)
			}
			upd := (1-d)*p[i] + d*next
			if diff := math.Abs(upd - p[i]); diff > residual {
				residual = diff
			}
			p[i] = upd
		}
		return residual, nil
	}

	var residual float64
	iters := 0
	for ; iters < maxIter; iters++ {
		var err error
		residual, err = step(damp)
		if err != nil {
			return nil, err
		}
		if residual < tol {
			break
		}
	}
	if math.IsNaN(residual) {
		return nil, fmt.Errorf("analytic: fixed point residual is NaN")
	}
	if residual >= tol {
		return nil, fmt.Errorf("analytic: fixed point did not converge in %d iterations (residual %.3g, tol %.3g)", maxIter, residual, tol)
	}
	// Polish: a few undamped sweeps land degenerate cases (lone station,
	// zero perturbation) exactly on the fixed point instead of a damped
	// epsilon away from it. The map is contractive this close to the
	// solution, so these can only tighten the residual.
	for k := 0; k < 3; k++ {
		if _, err := step(1); err != nil {
			return nil, err
		}
	}

	res := &ModelResult{Iterations: iters + 1, Residual: residual}
	sigma := float64(m.Params.SlotTime)

	if m.Hidden {
		// Hidden senders share no slot clock: account each station's own
		// renewal timeline (backoff slots interleaved with attempts).
		for i, c := range m.Classes {
			ts, _ := m.exchangeTimes(c)
			eSlot := (1-tauEff[i])*sigma + tauEff[i]*float64(ts)
			bits := float64(c.PayloadBytes * 8)
			good := tauEff[i] * (1 - p[i]) * bits / (eSlot / float64(sim.Second))
			res.Classes = append(res.Classes, ClassResult{
				Name: c.Name, N: c.N,
				Tau: chains[i].Tau, TauEffective: tauEff[i],
				PCollision: p[i], PPerceived: p[i] * (1 - c.SuppressCWGrowth),
				AvgCW: chains[i].AvgCW, AvgBackoffSlots: chains[i].AvgBackoffSlots,
				DropProb:      chains[i].DropProb,
				PerStationBps: good,
				AirtimeShare:  tauEff[i] * float64(ts) / eSlot,
			})
			res.TotalBps += good * float64(c.N)
		}
		return res, nil
	}

	// Shared-medium slot accounting (Bianchi, heterogeneous).
	pIdle := 1.0
	for i, c := range m.Classes {
		pIdle *= math.Pow(1-tauEff[i], float64(c.N))
	}
	pS := make([]float64, k)
	var pSuccTotal, attemptRate, tCollAvg float64
	for i, c := range m.Classes {
		s := float64(c.N) * tauEff[i] * math.Pow(1-tauEff[i], float64(c.N-1))
		for j, cj := range m.Classes {
			if j != i {
				s *= math.Pow(1-tauEff[j], float64(cj.N))
			}
		}
		pS[i] = s
		pSuccTotal += s
		_, tc := m.exchangeTimes(c)
		attemptRate += float64(c.N) * tauEff[i]
		tCollAvg += float64(c.N) * tauEff[i] * float64(tc)
	}
	if attemptRate > 0 {
		tCollAvg /= attemptRate
	}
	pColl := 1 - pIdle - pSuccTotal
	if pColl < 0 {
		pColl = 0
	}
	eSlot := pIdle * sigma
	for i, c := range m.Classes {
		ts, _ := m.exchangeTimes(c)
		eSlot += pS[i] * float64(ts)
	}
	eSlot += pColl * tCollAvg
	if eSlot <= 0 || math.IsNaN(eSlot) {
		return nil, fmt.Errorf("analytic: degenerate expected slot time %v", eSlot)
	}
	for i, c := range m.Classes {
		ts, _ := m.exchangeTimes(c)
		bits := float64(c.PayloadBytes * 8)
		good := pS[i] / float64(c.N) * bits / (eSlot / float64(sim.Second))
		res.Classes = append(res.Classes, ClassResult{
			Name: c.Name, N: c.N,
			Tau: chains[i].Tau, TauEffective: tauEff[i],
			PCollision: p[i], PPerceived: p[i] * (1 - c.SuppressCWGrowth),
			AvgCW: chains[i].AvgCW, AvgBackoffSlots: chains[i].AvgBackoffSlots,
			DropProb:      chains[i].DropProb,
			PerStationBps: good,
			AirtimeShare:  pS[i] * float64(ts) / eSlot,
		})
		res.TotalBps += good * float64(c.N)
	}
	return res, nil
}
