// Package greedy implements the paper's three greedy-receiver
// misbehaviors as mac.ReceiverPolicy values:
//
//   - Misbehavior 1, NAV inflation (NAVInflation): the receiver advertises
//     inflated duration fields in CTS/ACK frames (and RTS/DATA frames when
//     it transmits TCP ACKs), silencing every station except its own
//     sender — which ignores frames addressed to itself — so its sender
//     monopolizes the channel.
//   - Misbehavior 2, ACK spoofing (ACKSpoofer): the receiver sniffs data
//     frames destined to competing receivers and acknowledges them on the
//     victims' behalf, suppressing MAC-layer retransmission and pushing
//     wireless losses up into the victims' TCP congestion control.
//   - Misbehavior 3, fake ACKs (FakeACKer): the receiver acknowledges
//     corrupted frames destined to itself, preventing its sender's
//     exponential backoff and increasing its share of the medium.
//
// Every misbehavior takes a greedy percentage (GP): the fraction of
// opportunities on which the receiver actually misbehaves, which the paper
// varies to study detectability-vs-gain trade-offs.
package greedy

import (
	"fmt"
	"math/rand"
	"strings"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// FrameSet selects which outgoing frame types a misbehavior manipulates.
type FrameSet struct {
	RTS, CTS, Data, ACK bool
}

// Contains reports whether t is in the set.
func (s FrameSet) Contains(t mac.FrameType) bool {
	switch t {
	case mac.FrameRTS:
		return s.RTS
	case mac.FrameCTS:
		return s.CTS
	case mac.FrameData:
		return s.Data
	case mac.FrameACK:
		return s.ACK
	default:
		return false
	}
}

// Common frame sets from the paper's NAV-inflation sweeps (Fig 4a–d).
var (
	// CTSOnly inflates CTS frames.
	CTSOnly = FrameSet{CTS: true}
	// ACKOnly inflates MAC ACK frames.
	ACKOnly = FrameSet{ACK: true}
	// CTSAndACK inflates both receiver control frames (all a UDP receiver
	// can transmit).
	CTSAndACK = FrameSet{CTS: true, ACK: true}
	// RTSAndCTS inflates CTS plus the RTS frames a TCP receiver sends for
	// its TCP ACK packets.
	RTSAndCTS = FrameSet{RTS: true, CTS: true}
	// AllFrames inflates every frame the receiver transmits (Fig 4d).
	AllFrames = FrameSet{RTS: true, CTS: true, Data: true, ACK: true}
)

// frameFields names each FrameSet member, in canonical print order.
var frameFields = [...]struct {
	name  string
	field func(*FrameSet) *bool
}{
	{"rts", func(s *FrameSet) *bool { return &s.RTS }},
	{"cts", func(s *FrameSet) *bool { return &s.CTS }},
	{"data", func(s *FrameSet) *bool { return &s.Data }},
	{"ack", func(s *FrameSet) *bool { return &s.ACK }},
}

// String prints the set as a "+"-joined subset of rts/cts/data/ack in
// that order ("cts+ack"), "all" for every type, or "" for the empty set.
// ParseFrameSet inverts it.
func (s FrameSet) String() string {
	if s == AllFrames {
		return "all"
	}
	var parts []string
	for _, f := range frameFields {
		if *f.field(&s) {
			parts = append(parts, f.name)
		}
	}
	return strings.Join(parts, "+")
}

// ParseFrameSet parses a "+"-joined subset of rts/cts/data/ack in any
// order, or "all". The empty string is the empty set, which callers read
// as their default.
func ParseFrameSet(name string) (FrameSet, error) {
	var s FrameSet
	switch name {
	case "":
		return s, nil
	case "all":
		return AllFrames, nil
	}
	for _, part := range strings.Split(name, "+") {
		b := member(&s, part)
		if b == nil {
			return FrameSet{}, fmt.Errorf("greedy: frame set %q: unknown frame %q (want a +-joined subset of rts, cts, data, ack, or all)", name, part)
		}
		if *b {
			return FrameSet{}, fmt.Errorf("greedy: frame set %q repeats %q", name, part)
		}
		*b = true
	}
	return s, nil
}

// member returns the field of s that a frame name selects, or nil.
func member(s *FrameSet, name string) *bool {
	for _, f := range frameFields {
		if f.name == name {
			return f.field(s)
		}
	}
	return nil
}

// gpDraw reports whether the receiver behaves greedily this opportunity.
func gpDraw(rng *rand.Rand, percent float64) bool {
	switch {
	case percent >= 100:
		return true
	case percent <= 0:
		return false
	default:
		return rng.Float64()*100 < percent
	}
}

// NAVInflation is misbehavior 1. It implements mac.ReceiverPolicy.
type NAVInflation struct {
	mac.NormalPolicy

	frames FrameSet
	extra  sim.Time
	gp     float64
	rng    *rand.Rand

	// Inflated counts frames actually transmitted with inflated NAV.
	Inflated int64
}

var _ mac.ReceiverPolicy = (*NAVInflation)(nil)

// NewNAVInflation builds the policy: frames in set carry a duration field
// increased by extra (clamped to the protocol maximum of 32767 µs by the
// MAC) on greedyPercent of opportunities.
func NewNAVInflation(rng *rand.Rand, set FrameSet, extra sim.Time, greedyPercent float64) *NAVInflation {
	if rng == nil {
		panic("greedy: NewNAVInflation needs an RNG")
	}
	if extra < 0 {
		panic(fmt.Sprintf("greedy: negative NAV inflation %v", extra))
	}
	return &NAVInflation{frames: set, extra: extra, gp: greedyPercent, rng: rng}
}

// OutgoingDuration implements mac.ReceiverPolicy.
func (p *NAVInflation) OutgoingDuration(t mac.FrameType, normal sim.Time) sim.Time {
	if !p.frames.Contains(t) || !gpDraw(p.rng, p.gp) {
		return normal
	}
	p.Inflated++
	return normal + p.extra
}

// ACKSpoofer is misbehavior 2. It implements mac.ReceiverPolicy. The MAC
// invokes SpoofSniffedData for every decoded data frame addressed to
// another station (promiscuous mode).
type ACKSpoofer struct {
	mac.NormalPolicy

	gp  float64
	rng *rand.Rand
	// victims restricts spoofing to data frames addressed to these
	// stations; empty means spoof for every other receiver.
	victims map[mac.NodeID]bool

	// Sniffed counts eligible overheard data frames; Spoofs counts ACKs
	// actually forged.
	Sniffed int64
	Spoofs  int64
}

var _ mac.ReceiverPolicy = (*ACKSpoofer)(nil)

// NewACKSpoofer builds the policy. victims may be nil to target everyone.
func NewACKSpoofer(rng *rand.Rand, greedyPercent float64, victims ...mac.NodeID) *ACKSpoofer {
	if rng == nil {
		panic("greedy: NewACKSpoofer needs an RNG")
	}
	s := &ACKSpoofer{gp: greedyPercent, rng: rng}
	if len(victims) > 0 {
		s.victims = make(map[mac.NodeID]bool, len(victims))
		for _, v := range victims {
			s.victims[v] = true
		}
	}
	return s
}

// SpoofSniffedData implements mac.ReceiverPolicy.
func (p *ACKSpoofer) SpoofSniffedData(f *mac.Frame) bool {
	if p.victims != nil && !p.victims[f.Dst] {
		return false
	}
	p.Sniffed++
	if !gpDraw(p.rng, p.gp) {
		return false
	}
	p.Spoofs++
	return true
}

// FakeACKer is misbehavior 3. It implements mac.ReceiverPolicy. The MAC
// invokes AckCorrupted when a corrupted data frame's surviving addressing
// shows it was destined to this station.
type FakeACKer struct {
	mac.NormalPolicy

	gp  float64
	rng *rand.Rand

	// Opportunities counts corrupted own-frames seen; Faked counts ACKs
	// sent for them.
	Opportunities int64
	Faked         int64
}

var _ mac.ReceiverPolicy = (*FakeACKer)(nil)

// NewFakeACKer builds the policy.
func NewFakeACKer(rng *rand.Rand, greedyPercent float64) *FakeACKer {
	if rng == nil {
		panic("greedy: NewFakeACKer needs an RNG")
	}
	return &FakeACKer{gp: greedyPercent, rng: rng}
}

// AckCorrupted implements mac.ReceiverPolicy.
func (p *FakeACKer) AckCorrupted(_ mac.NodeID, c phys.FrameCorruption) bool {
	p.Opportunities++
	if !gpDraw(p.rng, p.gp) {
		return false
	}
	p.Faked++
	return true
}

// Combined chains several misbehaviors into one policy: NAV inflation
// applies to outgoing durations, spoofing to sniffed frames, and faking to
// corrupted receptions. Nil fields behave normally.
type Combined struct {
	NAV   *NAVInflation
	Spoof *ACKSpoofer
	Fake  *FakeACKer
}

var _ mac.ReceiverPolicy = (*Combined)(nil)

// OutgoingDuration implements mac.ReceiverPolicy.
func (c *Combined) OutgoingDuration(t mac.FrameType, normal sim.Time) sim.Time {
	if c.NAV == nil {
		return normal
	}
	return c.NAV.OutgoingDuration(t, normal)
}

// AckCorrupted implements mac.ReceiverPolicy.
func (c *Combined) AckCorrupted(src mac.NodeID, fc phys.FrameCorruption) bool {
	return c.Fake != nil && c.Fake.AckCorrupted(src, fc)
}

// SpoofSniffedData implements mac.ReceiverPolicy.
func (c *Combined) SpoofSniffedData(f *mac.Frame) bool {
	return c.Spoof != nil && c.Spoof.SpoofSniffedData(f)
}
