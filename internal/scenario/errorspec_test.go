package scenario

import (
	"strings"
	"testing"

	"greedy80211/internal/phys"
)

// TestConfigErrorSpecConflictRejected: a Config whose Error spec carries
// a second model's parameters next to its own kind is an error, not a
// silent precedence decision.
func TestConfigErrorSpecConflictRejected(t *testing.T) {
	withBER := phys.FERSpec(0.2)
	withBER.BER = 1e-4
	withFER := phys.BERSpec(1e-4)
	withFER.FER = 0.2
	withDataGate := phys.BERSpec(1e-4)
	withDataGate.MinUnits = phys.DataFERMinUnits
	withLadder := phys.FERSpec(0.2)
	withLadder.FERByRate = map[int64]float64{phys.Rate11Mbps: 0.5}
	for name, spec := range map[string]phys.ErrorSpec{
		"spec+ber":     withBER,
		"spec+fer":     withFER,
		"spec+datafer": withDataGate,
		"spec+ladder":  withLadder,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewWorld(Config{Seed: 1, Error: spec}); err == nil || !strings.Contains(err.Error(), "conflicts") {
				t.Fatalf("NewWorld = %v, want conflict error", err)
			}
		})
	}
	// An invalid spec is rejected too.
	if _, err := NewWorld(Config{Seed: 1, Error: phys.ErrorSpec{BER: 1e-4}}); err == nil {
		t.Fatal("NewWorld accepted a kindless spec with parameters")
	}
}
