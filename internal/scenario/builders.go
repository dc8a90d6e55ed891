package scenario

import (
	"fmt"

	"greedy80211/internal/phys"
	"greedy80211/internal/transport"
)

// Default workload parameters from the paper's evaluation setup.
const (
	// DefaultPayloadBytes is the paper's data packet size.
	DefaultPayloadBytes = 1024
	// DefaultCBRRateBps saturates an 802.11b medium (the paper's CBR
	// flows are "high enough to saturate the medium" and equal across
	// flows).
	DefaultCBRRateBps = 6e6
)

// SenderName names pair i's sender ("S1", "S2", … with 1-based indices
// as in the paper's figures).
func SenderName(i int) string { return fmt.Sprintf("S%d", i+1) }

// ReceiverName names pair i's receiver ("R1", "R2", …).
func ReceiverName(i int) string { return fmt.Sprintf("R%d", i+1) }

// PairsConfig builds the paper's workhorse topology: n sender-receiver
// pairs, all stations within communication range, flow i from S(i) to
// R(i).
type PairsConfig struct {
	Config
	// N is the number of pairs.
	N int
	// Transport selects UDP (CBR at CBRRateBps) or TCP.
	Transport Transport
	// CBRRateBps is the per-flow UDP rate; zero means the default.
	CBRRateBps float64
	// PayloadBytes is the data packet size; zero means 1024.
	PayloadBytes int
	// ReceiverSpecs declaratively customizes receiver i's station (greedy
	// policy, GRC, queue cap, position); missing indices are normal
	// receivers, and more than N entries is an error.
	ReceiverSpecs []StationSpec
	// SenderSpecs declaratively customizes sender i's station.
	SenderSpecs []StationSpec
}

// BuildPairs constructs the world and its flows (flow IDs 1..n).
func BuildPairs(cfg PairsConfig) (*World, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("scenario: BuildPairs with %d pairs", cfg.N)
	}
	if err := checkSpecs("receiver", cfg.ReceiverSpecs, cfg.N); err != nil {
		return nil, err
	}
	if err := checkSpecs("sender", cfg.SenderSpecs, cfg.N); err != nil {
		return nil, err
	}
	w, err := NewWorld(cfg.Config)
	if err != nil {
		return nil, err
	}
	// Receivers first so sender specs (emulation knobs) can reference them.
	// Pairs sit 30 m apart: every station is well inside every other's
	// communication range (250 m default), while each pair's own receiver
	// is ≥10 dB stronger at its sender than any other pair's receiver —
	// the regime in which GRC's capture-based spoof recovery is safe.
	for i := 0; i < cfg.N; i++ {
		pos := phys.Position{X: 5, Y: float64(i) * 30}
		if _, err := w.AddStation(ReceiverName(i), pos, specAt(cfg.ReceiverSpecs, i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.N; i++ {
		pos := phys.Position{X: 0, Y: float64(i) * 30}
		if _, err := w.AddStation(SenderName(i), pos, specAt(cfg.SenderSpecs, i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.N; i++ {
		if err := w.addFlow(i+1, cfg.Transport, SenderName(i), ReceiverName(i), cfg.CBRRateBps, cfg.PayloadBytes); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// SharedAPConfig builds the one-sender-many-receivers topology (Fig 10,
// Fig 14a): a single AP "S1" transmits one flow to each of N receivers.
type SharedAPConfig struct {
	Config
	N            int
	Transport    Transport
	CBRRateBps   float64
	PayloadBytes int
	// ReceiverSpecs declaratively customizes receiver i.
	ReceiverSpecs []StationSpec
	// SenderSpec declaratively customizes the AP "S1".
	SenderSpec StationSpec
}

// BuildSharedAP constructs the world; flow i+1 goes to receiver i. The
// shared MAC queue at the AP produces the head-of-line blocking the paper
// observes.
func BuildSharedAP(cfg SharedAPConfig) (*World, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("scenario: BuildSharedAP with %d receivers", cfg.N)
	}
	if err := checkSpecs("receiver", cfg.ReceiverSpecs, cfg.N); err != nil {
		return nil, err
	}
	w, err := NewWorld(cfg.Config)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		pos := phys.Position{X: 5, Y: float64(i) * 3}
		if _, err := w.AddStation(ReceiverName(i), pos, specAt(cfg.ReceiverSpecs, i)); err != nil {
			return nil, err
		}
	}
	if _, err := w.AddStation(SenderName(0), phys.Position{}, cfg.SenderSpec); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		if err := w.addFlow(i+1, cfg.Transport, SenderName(0), ReceiverName(i), cfg.CBRRateBps, cfg.PayloadBytes); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// HiddenPairsConfig configures the fake-ACK collision topology — the
// same Config-embedding shape as the other builders.
type HiddenPairsConfig struct {
	Config
	// ReceiverSpecs declaratively customizes receiver i (0 = R1, 1 = R2).
	ReceiverSpecs []StationSpec
}

// BuildHiddenPairs constructs the fake-ACK collision topology of Fig 18:
// two APs out of carrier-sense range of each other, receivers between
// them, RTS/CTS disabled, so the receivers suffer hidden-terminal
// collisions. Positions use the 55 m / 99 m propagation of the GRC
// evaluation.
func BuildHiddenPairs(cfg HiddenPairsConfig) (*World, error) {
	prop := phys.GRCPropagation()
	cfg.Propagation = &prop
	cfg.UseRTSCTS = false
	if err := checkSpecs("receiver", cfg.ReceiverSpecs, 2); err != nil {
		return nil, err
	}
	w, err := NewWorld(cfg.Config)
	if err != nil {
		return nil, err
	}
	// S1 at 0 and S2 at 108 m are hidden from each other (CS range 99 m);
	// R1 (54 m) and R2 (55 m) sit between them, each within the 55 m
	// communication range of its sender.
	positions := []struct {
		name string
		x    float64
	}{
		{ReceiverName(0), 54},
		{ReceiverName(1), 55},
		{SenderName(0), 0},
		{SenderName(1), 108.9},
	}
	for i, p := range positions {
		// At most two specs, so the senders (i = 2, 3) stay compliant.
		if _, err := w.AddStation(p.name, phys.Position{X: p.x}, specAt(cfg.ReceiverSpecs, i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		if err := w.addFlow(i+1, UDP, SenderName(i), ReceiverName(i), 0, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// addFlow adds builder flow id from -> to: a saturating TCP connection,
// or CBR/UDP at rateBps application bits per second in payload-byte
// packets, where zero keeps the paper's defaults.
func (w *World) addFlow(id int, kind Transport, from, to string, rateBps float64, payload int) error {
	var err error
	switch kind {
	case TCP:
		_, err = w.AddTCPFlow(id, from, to, transport.DefaultTCPConfig(id))
	default:
		if rateBps == 0 {
			rateBps = DefaultCBRRateBps
		}
		if payload == 0 {
			payload = DefaultPayloadBytes
		}
		_, err = w.AddUDPFlow(id, from, to, rateBps, payload)
	}
	return err
}
