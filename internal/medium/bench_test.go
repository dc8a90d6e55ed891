package medium

import (
	"math"
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// stubReceiver absorbs carrier-sense edges and frames without a MAC
// behind it, so a benchmark times the medium and the scheduler alone.
type stubReceiver struct{}

func (stubReceiver) ChannelBusy(bool)             {}
func (stubReceiver) RxEnd(*mac.Frame, mac.RxInfo) {}

// BenchmarkMediumFanout measures the medium's per-arrival cost: one
// transmitter and 20 stub receivers on a 30–40 m spiral (within
// communication range, each at its own delay), one 1 ms frame an op,
// drained before the next. Each arrival is one begin and one end event,
// an RSSI draw and a channel-error draw; ns/arrival is the figure to
// compare.
func BenchmarkMediumFanout(b *testing.B) {
	const fanout = 20
	sched := sim.NewScheduler(1)
	m, err := New(sched, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddRadio(1, phys.Position{}, stubReceiver{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fanout; i++ {
		angle := 2 * math.Pi * float64(i) / fanout
		r := 30 + float64(i)/2
		pos := phys.Position{X: r * math.Cos(angle), Y: r * math.Sin(angle)}
		if err := m.AddRadio(mac.NodeID(i+2), pos, stubReceiver{}); err != nil {
			b.Fatal(err)
		}
	}
	if n := m.NeighborCount(1); n != fanout {
		b.Fatalf("transmitter has %d neighbors, want %d", n, fanout)
	}
	f := dataFrame(1, mac.BroadcastID, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(1, f, sim.Millisecond)
		sched.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fanout), "ns/arrival")
}
