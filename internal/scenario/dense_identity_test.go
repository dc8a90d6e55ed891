package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// TestDenseWorldIdentityGolden pins the end state of a multi-BSS world:
// the 4×4 grid TestDenseWorldAllocBudget builds (336 radios, 20-neighbour
// fan-out, channels 1/6/11), seed 1, one simulated second. The event
// count and the SHA-256 of the MetricsSnapshot JSON change if anything
// perturbs dispatch order or RNG draws on the neighbour-scoped path — the
// report gate only exercises the 3×3 dense1 world. Update the golden only
// for a change that is meant to alter simulation output.
func TestDenseWorldIdentityGolden(t *testing.T) {
	const (
		wantExecuted = uint64(854061)
		wantSHA      = "e6918c9345147f65b57d8e75caed7562146d1438e8f599192c728711ac12c30b"
	)
	prop := phys.GRCPropagation()
	w, err := BuildCells(CellsConfig{
		Config: Config{Seed: 1, Propagation: &prop},
		Topology: TopologySpec{
			NumCells:        16,
			GridCols:        4,
			ChannelPlan:     []int{1, 6, 11},
			DefaultStations: 20,
			DefaultUplink:   5,
		},
		CBRRateBps: 2e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sim.Second)
	raw, err := json.Marshal(w.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	got := hex.EncodeToString(sum[:])
	if n := w.Sched.Executed(); n != wantExecuted {
		t.Errorf("executed %d events, golden %d", n, wantExecuted)
	}
	if got != wantSHA {
		t.Errorf("MetricsSnapshot SHA-256 = %s, golden %s", got, wantSHA)
	}
}
