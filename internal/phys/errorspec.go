package phys

import "fmt"

// ErrorKind names one channel error process in an ErrorSpec.
type ErrorKind string

// The error-process kinds. The zero value is a loss-free channel.
const (
	// ErrorKindNone is a loss-free channel.
	ErrorKindNone ErrorKind = ""
	// ErrorKindBER applies Table III's per-unit error process
	// (UnitErrorModel): FER = 1 − (1 − BER)^units.
	ErrorKindBER ErrorKind = "ber"
	// ErrorKindFER corrupts every frame with the same probability
	// regardless of size (FixedFERModel).
	ErrorKindFER ErrorKind = "fer"
	// ErrorKindDataFER corrupts only data-sized frames — control frames
	// below MinUnits pass (SizeGatedFER), the "data frame error rate" knob
	// of the fake-ACK experiments.
	ErrorKindDataFER ErrorKind = "data-fer"
	// ErrorKindRateLadder makes loss a function of the PHY rate a frame
	// was sent at (RateLadderFER), the auto-rate extension's channel.
	ErrorKindRateLadder ErrorKind = "rate-ladder"
)

// DataFERMinUnits is the default size gate of ErrorKindDataFER: frames of
// at least this many error units count as data. 200 units clears every
// control frame (ACK/CTS 38, RTS 44) while catching 1024-byte payloads.
const DataFERMinUnits = 200

// ErrorSpec is the one-field-of-record description of a channel error
// model: a tagged sum over the processes the simulator knows, with only
// the fields of the selected kind meaningful. It is JSON-serializable, so
// campaign specs and TopologySpecs can carry it, and it is the only way
// to give a scenario.Config a channel error model. Validate rejects a
// spec that sets another kind's parameters, so one config cannot carry
// two error models.
type ErrorSpec struct {
	// Kind selects the process; the remaining fields parameterize it.
	Kind ErrorKind `json:"kind,omitempty"`
	// BER is ErrorKindBER's per-unit error rate.
	BER float64 `json:"ber,omitempty"`
	// FER is the frame error rate of ErrorKindFER and ErrorKindDataFER.
	FER float64 `json:"fer,omitempty"`
	// MinUnits gates small frames out of ErrorKindDataFER and
	// ErrorKindRateLadder; zero means DataFERMinUnits for data-fer and
	// no gate for rate-ladder.
	MinUnits int `json:"min_units,omitempty"`
	// FERByRate maps PHY rate (bits/s) to frame error rate for
	// ErrorKindRateLadder; absent rates are loss-free.
	FERByRate map[int64]float64 `json:"fer_by_rate,omitempty"`
}

// BERSpec selects Table III's per-unit error process.
func BERSpec(ber float64) ErrorSpec { return ErrorSpec{Kind: ErrorKindBER, BER: ber} }

// FERSpec selects a size-independent frame error rate.
func FERSpec(rate float64) ErrorSpec { return ErrorSpec{Kind: ErrorKindFER, FER: rate} }

// DataFERSpec selects a data-frame-only error rate with the default size
// gate.
func DataFERSpec(rate float64) ErrorSpec { return ErrorSpec{Kind: ErrorKindDataFER, FER: rate} }

// RateLadderSpec selects PHY-rate-dependent loss; frames below minUnits
// always pass.
func RateLadderSpec(ferByRate map[int64]float64, minUnits int) ErrorSpec {
	return ErrorSpec{Kind: ErrorKindRateLadder, FERByRate: ferByRate, MinUnits: minUnits}
}

// IsZero reports whether the spec is the loss-free zero value.
func (s ErrorSpec) IsZero() bool {
	return s.Kind == ErrorKindNone && s.BER == 0 && s.FER == 0 &&
		s.MinUnits == 0 && len(s.FERByRate) == 0
}

// Validate rejects unknown kinds, out-of-range probabilities, and any
// parameter that belongs to a different kind than the selected one, so a
// config cannot silently carry two half-specified error models.
func (s ErrorSpec) Validate() error {
	checkProb := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("phys: ErrorSpec.%s = %v out of [0,1]", name, v)
		}
		return nil
	}
	stray := func(cond bool, field string) error {
		if cond {
			return fmt.Errorf("phys: ErrorSpec kind %q conflicts with %s (set one model only)", s.Kind, field)
		}
		return nil
	}
	switch s.Kind {
	case ErrorKindNone:
		if !s.IsZero() {
			return fmt.Errorf("phys: ErrorSpec has parameters but no kind (set Kind, e.g. %q)", ErrorKindBER)
		}
		return nil
	case ErrorKindBER:
		if err := checkProb("BER", s.BER); err != nil {
			return err
		}
		for _, e := range []error{
			stray(s.FER != 0, "FER"),
			stray(s.MinUnits != 0, "MinUnits"),
			stray(len(s.FERByRate) != 0, "FERByRate"),
		} {
			if e != nil {
				return e
			}
		}
		return nil
	case ErrorKindFER:
		if err := checkProb("FER", s.FER); err != nil {
			return err
		}
		for _, e := range []error{
			stray(s.BER != 0, "BER"),
			stray(s.MinUnits != 0, "MinUnits"),
			stray(len(s.FERByRate) != 0, "FERByRate"),
		} {
			if e != nil {
				return e
			}
		}
		return nil
	case ErrorKindDataFER:
		if err := checkProb("FER", s.FER); err != nil {
			return err
		}
		if s.MinUnits < 0 {
			return fmt.Errorf("phys: ErrorSpec.MinUnits = %d must be non-negative", s.MinUnits)
		}
		for _, e := range []error{
			stray(s.BER != 0, "BER"),
			stray(len(s.FERByRate) != 0, "FERByRate"),
		} {
			if e != nil {
				return e
			}
		}
		return nil
	case ErrorKindRateLadder:
		for rate, fer := range s.FERByRate {
			if rate <= 0 {
				return fmt.Errorf("phys: ErrorSpec.FERByRate has non-positive rate %d", rate)
			}
			if err := checkProb(fmt.Sprintf("FERByRate[%d]", rate), fer); err != nil {
				return err
			}
		}
		if s.MinUnits < 0 {
			return fmt.Errorf("phys: ErrorSpec.MinUnits = %d must be non-negative", s.MinUnits)
		}
		for _, e := range []error{
			stray(s.BER != 0, "BER"),
			stray(s.FER != 0, "FER"),
		} {
			if e != nil {
				return e
			}
		}
		return nil
	default:
		return fmt.Errorf("phys: unknown ErrorSpec kind %q", s.Kind)
	}
}

// Models materializes the spec: a per-frame error model, a rate-dependent
// model, or neither (loss-free). At most one of the two returns non-nil.
func (s ErrorSpec) Models() (ErrorModel, RateErrorModel, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	switch s.Kind {
	case ErrorKindNone:
		return nil, nil, nil
	case ErrorKindBER:
		return UnitErrorModel{BER: s.BER}, nil, nil
	case ErrorKindFER:
		return FixedFERModel{Rate: s.FER}, nil, nil
	case ErrorKindDataFER:
		min := s.MinUnits
		if min == 0 {
			min = DataFERMinUnits
		}
		return SizeGatedFER{Rate: s.FER, MinUnits: min}, nil, nil
	case ErrorKindRateLadder:
		return nil, RateLadderFER{FERByRate: s.FERByRate, MinUnits: s.MinUnits}, nil
	default:
		return nil, nil, fmt.Errorf("phys: unknown ErrorSpec kind %q", s.Kind)
	}
}
