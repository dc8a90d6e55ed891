package phys

import (
	"fmt"
	"math"

	"greedy80211/internal/sim"
)

// Position is a node location on the floor plan, in meters.
type Position struct {
	X, Y float64
}

// DistanceTo reports the Euclidean distance between two positions, meters.
func (p Position) DistanceTo(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (p Position) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// SpeedOfLight in meters per second, for propagation delay.
const speedOfLight = 299_792_458.0

// PropagationDelay reports the signal flight time over d meters.
func PropagationDelay(d float64) sim.Time {
	if d <= 0 {
		return 0
	}
	return sim.Time(d / speedOfLight * float64(sim.Second))
}

// Propagation computes received power and range membership between node
// positions. The paper's ns-2 setup uses a two-ray-ground-style power law
// with distinct reception and carrier-sense thresholds, parameterized here
// directly by the two ranges (e.g. 55 m communication / 99 m interference
// in the GRC evaluation of Fig 23).
type Propagation struct {
	// CommRange is the maximum distance at which a frame can be decoded.
	CommRange float64
	// CSRange is the maximum distance at which energy is detected
	// (physical carrier sense / interference); CSRange ≥ CommRange.
	CSRange float64
	// TxPowerDBm is the transmit power; only relative levels matter.
	TxPowerDBm float64
	// PathLossExponent is the power-law exponent (4 = two-ray ground).
	PathLossExponent float64
	// ReferenceDistance anchors the path-loss curve (meters).
	ReferenceDistance float64
}

// DefaultPropagation mirrors the paper's default: every node within
// communication range of every other (they place all nodes close together
// unless studying distance effects). Ranges follow ns-2's stock 250 m /
// 550 m two-ray-ground values.
func DefaultPropagation() Propagation {
	return Propagation{
		CommRange:         250,
		CSRange:           550,
		TxPowerDBm:        20,
		PathLossExponent:  4,
		ReferenceDistance: 1,
	}
}

// GRCPropagation is the Fig 23 topology's propagation: 55 m communication
// range and 99 m interference range.
func GRCPropagation() Propagation {
	p := DefaultPropagation()
	p.CommRange = 55
	p.CSRange = 99
	return p
}

// Validate reports a descriptive error for inconsistent parameters.
func (p Propagation) Validate() error {
	if p.CommRange <= 0 {
		return fmt.Errorf("phys: communication range %.1f must be positive", p.CommRange)
	}
	if p.CSRange < p.CommRange {
		return fmt.Errorf("phys: carrier-sense range %.1f below communication range %.1f",
			p.CSRange, p.CommRange)
	}
	if p.PathLossExponent <= 0 {
		return fmt.Errorf("phys: path-loss exponent %.1f must be positive", p.PathLossExponent)
	}
	if p.ReferenceDistance <= 0 {
		return fmt.Errorf("phys: reference distance %.2f must be positive", p.ReferenceDistance)
	}
	return nil
}

// RxPowerDBm reports the mean received power at distance d meters.
func (p Propagation) RxPowerDBm(d float64) float64 {
	if d < p.ReferenceDistance {
		d = p.ReferenceDistance
	}
	return p.TxPowerDBm - 10*p.PathLossExponent*math.Log10(d/p.ReferenceDistance)
}

// RxThresholdDBm is the minimum power at which a frame is decodable: the
// power at exactly CommRange.
func (p Propagation) RxThresholdDBm() float64 { return p.RxPowerDBm(p.CommRange) }

// InCommRange reports whether a transmission from a to b is decodable.
func (p Propagation) InCommRange(a, b Position) bool {
	return a.DistanceTo(b) <= p.CommRange
}

// InCSRange reports whether a transmission from a raises b's carrier sense.
func (p Propagation) InCSRange(a, b Position) bool {
	return a.DistanceTo(b) <= p.CSRange
}

// CaptureThresholdDB is the ns-2 default capture ratio (10 dB): when two
// receptions overlap, the stronger is decoded only if it exceeds the other
// by at least this many dB.
const CaptureThresholdDB = 10.0

// Captures reports whether a signal at strongDBm captures over one at
// weakDBm under the given capture threshold.
func Captures(strongDBm, weakDBm, thresholdDB float64) bool {
	return strongDBm-weakDBm >= thresholdDB
}
