package medium

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// fullScan is the brute-force neighbor oracle: every radio in
// registration order, kept if it shares r's channel and sits within
// carrier-sense range, r itself excluded, with the link's propagation
// computed from scratch and each edge ranked by a stable sort on delay.
func fullScan(m *Medium, r *radio) []neighbor {
	var out []neighbor
	for _, o := range m.order {
		if o == r || o.channel != r.channel {
			continue
		}
		dist := r.pos.DistanceTo(o.pos)
		if dist > m.cfg.Propagation.CSRange {
			continue
		}
		out = append(out, neighbor{
			o:      o,
			inComm: dist <= m.cfg.Propagation.CommRange,
			rxDBm:  m.cfg.Propagation.RxPowerDBm(dist),
			delay:  phys.PropagationDelay(dist),
		})
	}
	byDelay := make([]int, len(out))
	for i := range byDelay {
		byDelay[i] = i
	}
	sort.SliceStable(byDelay, func(i, j int) bool { return out[byDelay[i]].delay < out[byDelay[j]].delay })
	for rank, i := range byDelay {
		out[i].rank = rank
	}
	return out
}

// sameNeighbors compares two neighbor lists entry by entry: the same
// radio (by identity) and the same link parameters, in the same order.
func sameNeighbors(a, b []neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// busyLog records which transmission slot each carrier-sense rise at a
// radio belongs to.
type busyLog struct {
	sched *sim.Scheduler
	slots []int
}

// slotSpacing separates the delivery check's transmissions so none
// overlap: each rise maps back to exactly one transmitter.
const slotSpacing = 10 * sim.Millisecond

func (b *busyLog) ChannelBusy(busy bool) {
	if busy {
		b.slots = append(b.slots, int(b.sched.Now()/slotSpacing))
	}
}

func (b *busyLog) RxEnd(*mac.Frame, mac.RxInfo) {}

// TestNeighborsMatchFullScan is the oracle behind neighbor-scoped
// delivery. On randomized clipped-range, two-channel layouts, each
// radio's neighbor list must equal fullScan: same radios in the same
// order, same inComm, rxDBm, delay and arrival rank. Transmit draws one
// RSSI sample per list entry in list order, so a matching list fixes
// every RNG draw of newArrival: the scoped medium behaves exactly as a
// broadcast scan of every radio would. The lists must stay exact after
// radios move, and a transmission from each radio must raise carrier
// sense at exactly its oracle neighbors.
func TestNeighborsMatchFullScan(t *testing.T) {
	const radios = 24
	prop := phys.GRCPropagation() // 55 m comm / 99 m CS: heavy clipping
	for layout := int64(1); layout <= 5; layout++ {
		layout := layout
		t.Run(fmt.Sprintf("layout%d", layout), func(t *testing.T) {
			rng := rand.New(rand.NewSource(layout))
			place := func() phys.Position {
				return phys.Position{X: rng.Float64() * 300, Y: rng.Float64() * 300}
			}
			sched := sim.NewScheduler(9)
			cfg := DefaultConfig()
			cfg.Propagation = prop
			m, err := New(sched, cfg)
			if err != nil {
				t.Fatal(err)
			}
			logs := make([]*busyLog, radios)
			for i := range logs {
				logs[i] = &busyLog{sched: sched}
				if err := m.AddRadioOn(mac.NodeID(i+1), place(), []int{1, 6}[rng.Intn(2)], logs[i]); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string) {
				t.Helper()
				clipped := false
				for _, r := range m.order {
					m.NeighborCount(r.id) // rebuilds a stale list
					want := fullScan(m, r)
					if !sameNeighbors(r.neighbors, want) {
						t.Fatalf("%s: radio %d neighbors differ from the full scan:\n got %v\nwant %v",
							stage, r.id, r.neighbors, want)
					}
					coChannel := 0
					for _, o := range m.order {
						if o != r && o.channel == r.channel {
							coChannel++
						}
					}
					clipped = clipped || len(want) < coChannel
				}
				if !clipped {
					t.Fatalf("%s: no radio lost a co-channel peer to range; the layout tests nothing", stage)
				}
			}
			check("placed")
			for i := 0; i < radios/4; i++ {
				if err := m.SetPosition(mac.NodeID(1+rng.Intn(radios)), place()); err != nil {
					t.Fatal(err)
				}
			}
			check("moved")

			want := make([][]int, radios)
			for k, tx := range m.order {
				for _, nb := range fullScan(m, tx) {
					want[nb.o.id-1] = append(want[nb.o.id-1], k)
				}
				k, tx := k, tx
				sched.At(sim.Time(k)*slotSpacing, func() {
					m.Transmit(tx.id, dataFrame(tx.id, mac.BroadcastID, uint16(k)), sim.Millisecond)
				})
			}
			sched.RunUntil(sim.Time(radios) * slotSpacing)
			for i, l := range logs {
				if !reflect.DeepEqual(l.slots, want[i]) {
					t.Errorf("radio %d sensed transmitters %v, oracle says %v", i+1, l.slots, want[i])
				}
			}
		})
	}
}
