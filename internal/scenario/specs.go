package scenario

import (
	"fmt"

	"greedy80211/internal/detect"
	"greedy80211/internal/greedy"
	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// Policy names accepted by PolicySpec.Name.
const (
	// PolicyNone is a compliant receiver (the zero value).
	PolicyNone = ""
	// PolicyNAVInflation is misbehavior 1: inflated duration fields.
	PolicyNAVInflation = "nav-inflation"
	// PolicyACKSpoofing is misbehavior 2: ACKs forged on victims' behalf.
	PolicyACKSpoofing = "ack-spoofing"
	// PolicyFakeACKs is misbehavior 3: ACKs for corrupted frames.
	PolicyFakeACKs = "fake-acks"
)

// PolicySpec is the declarative, JSON-serializable description of a
// (possibly greedy) receiver policy: a name plus the knobs the paper
// sweeps. It replaces Go closures in builder configs so campaign and
// topology specs can express greedy mixes as data. The zero value is a
// compliant receiver.
type PolicySpec struct {
	// Name selects the misbehavior (PolicyNone, PolicyNAVInflation,
	// PolicyACKSpoofing, PolicyFakeACKs).
	Name string `json:"name,omitempty"`
	// GreedyPercent is how often the receiver misbehaves, in [0,100]; nil
	// means 100. A 0% policy never misbehaves, yet it is not a compliant
	// receiver: building it takes a random stream from the world, which
	// shifts the streams of every later station.
	GreedyPercent *float64 `json:"greedy_percent,omitempty"`
	// NAVInflation is misbehavior 1's added duration; zero means 10 ms.
	NAVInflation sim.Time `json:"nav_inflation,omitempty"`
	// Frames selects misbehavior 1's manipulated frame types: a
	// "+"-joined subset of rts/cts/data/ack, or "all" (greedy.FrameSet's
	// String form); empty means "cts+ack".
	Frames string `json:"frames,omitempty"`
	// Victims lists already-added stations an ACK spoofer forges ACKs
	// for.
	Victims []string `json:"victims,omitempty"`
}

// IsZero reports whether the spec is the compliant zero value.
func (p PolicySpec) IsZero() bool {
	return p.Name == PolicyNone && p.GreedyPercent == nil && p.NAVInflation == 0 &&
		p.Frames == "" && len(p.Victims) == 0
}

// Validate reports whether the spec is well-formed: a known policy name,
// percentages in range, and no knob that belongs to a different policy.
func (p PolicySpec) Validate() error {
	if gp := p.GreedyPercent; gp != nil && (*gp < 0 || *gp > 100) {
		return fmt.Errorf("scenario: PolicySpec.GreedyPercent %v out of [0,100]", *gp)
	}
	switch p.Name {
	case PolicyNone:
		if !p.IsZero() {
			return fmt.Errorf("scenario: PolicySpec has parameters but no policy name")
		}
	case PolicyNAVInflation:
		if p.NAVInflation < 0 {
			return fmt.Errorf("scenario: PolicySpec.NAVInflation %v is negative", p.NAVInflation)
		}
		if _, err := greedy.ParseFrameSet(p.Frames); err != nil {
			return fmt.Errorf("scenario: PolicySpec.Frames: %w", err)
		}
		if len(p.Victims) != 0 {
			return fmt.Errorf("scenario: PolicySpec %q does not take victims", p.Name)
		}
	case PolicyACKSpoofing:
		if p.NAVInflation != 0 || p.Frames != "" {
			return fmt.Errorf("scenario: PolicySpec %q does not take NAV/frame knobs", p.Name)
		}
	case PolicyFakeACKs:
		if p.NAVInflation != 0 || p.Frames != "" || len(p.Victims) != 0 {
			return fmt.Errorf("scenario: PolicySpec %q takes only a greedy percentage", p.Name)
		}
	default:
		return fmt.Errorf("scenario: unknown policy %q", p.Name)
	}
	return nil
}

// build materializes a validated policy against a world under
// construction. Victims must already be added (builders add receivers
// first).
func (p PolicySpec) build(w *World) (mac.ReceiverPolicy, error) {
	gp := 100.0
	if p.GreedyPercent != nil {
		gp = *p.GreedyPercent
	}
	switch p.Name {
	case PolicyNone:
		return nil, nil
	case PolicyNAVInflation:
		extra := p.NAVInflation
		if extra == 0 {
			extra = 10 * sim.Millisecond
		}
		set, _ := greedy.ParseFrameSet(p.Frames)
		if set == (greedy.FrameSet{}) {
			set = greedy.CTSAndACK
		}
		return greedy.NewNAVInflation(w.Sched.RNG(), set, extra, gp), nil
	case PolicyACKSpoofing:
		victims := make([]mac.NodeID, 0, len(p.Victims))
		for _, name := range p.Victims {
			st, ok := w.Station(name)
			if !ok {
				return nil, fmt.Errorf("scenario: spoof victim %q not added yet", name)
			}
			victims = append(victims, st.ID)
		}
		return greedy.NewACKSpoofer(w.Sched.RNG(), gp, victims...), nil
	case PolicyFakeACKs:
		return greedy.NewFakeACKer(w.Sched.RNG(), gp), nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", p.Name)
	}
}

// StationSpec declaratively customizes one builder station. It is the
// only way to configure a builder's stations, and it is JSON-serializable,
// so campaign specs can express greedy mixes, GRC deployment, rate
// control, queue sizing, and placement as data.
type StationSpec struct {
	// Policy installs a (possibly greedy) receiver policy.
	Policy PolicySpec `json:"policy,omitempty"`
	// GRC installs the countermeasure observer with the given config.
	GRC *detect.Config `json:"grc,omitempty"`
	// ARF runs the ARF rate controller over the world band's rate set
	// on this station's transmissions; false keeps the band's fixed data
	// rate.
	ARF bool `json:"arf,omitempty"`
	// QueueCap overrides the world's MAC queue bound for this station;
	// zero keeps it.
	QueueCap int `json:"queue_cap,omitempty"`
	// Position overrides the builder's default placement.
	Position *phys.Position `json:"position,omitempty"`
	// Channel overrides the builder's channel assignment (multi-BSS
	// worlds); zero keeps it.
	Channel int `json:"channel,omitempty"`
}

// Validate reports whether the spec is well-formed.
func (s StationSpec) Validate() error {
	if s.QueueCap < 0 {
		return fmt.Errorf("scenario: StationSpec.QueueCap %d is negative", s.QueueCap)
	}
	return s.Policy.Validate()
}

// opts materializes the spec into StationOpts against a world under
// construction.
func (s StationSpec) opts(w *World) (StationOpts, error) {
	if err := s.Validate(); err != nil {
		return StationOpts{}, err
	}
	policy, err := s.Policy.build(w)
	if err != nil {
		return StationOpts{}, err
	}
	opts := StationOpts{
		Policy:   policy,
		GRC:      s.GRC,
		QueueCap: s.QueueCap,
		Channel:  s.Channel,
	}
	if s.ARF {
		rates := mac.Rates80211B()
		if w.cfg.Band == phys.Band80211A {
			rates = mac.Rates80211A()
		}
		opts.AutoRate = mac.NewARF(rates, 0, 0)
	}
	return opts, nil
}

// checkSpecs rejects a spec slice longer than the n stations it
// customizes, instead of silently ignoring the extra entries.
func checkSpecs(role string, specs []StationSpec, n int) error {
	if len(specs) > n {
		return fmt.Errorf("scenario: %d %s specs for %d %ss", len(specs), role, n, role)
	}
	return nil
}

// stationFor resolves station i's options and position during a build;
// indices past the spec slice are compliant stations at def.
func stationFor(w *World, i int, def phys.Position, specs []StationSpec) (StationOpts, phys.Position, error) {
	if i >= len(specs) {
		return StationOpts{}, def, nil
	}
	opts, err := specs[i].opts(w)
	if err != nil {
		return StationOpts{}, def, err
	}
	if specs[i].Position != nil {
		def = *specs[i].Position
	}
	return opts, def, nil
}
