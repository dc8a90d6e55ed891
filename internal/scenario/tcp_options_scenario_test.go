package scenario

import (
	"testing"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
	"greedy80211/internal/transport"
)

// Delayed ACKs and NewReno over the actual wireless medium: both options
// must keep the connection healthy and delayed ACKs must roughly halve
// the reverse-channel ACK traffic (freeing airtime).
func TestTCPOptionsOverWireless(t *testing.T) {
	run := func(mut func(*transport.TCPConfig)) *Flow {
		w, err := NewWorld(Config{Seed: 37, UseRTSCTS: true, Error: phys.BERSpec(1e-5)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddStation("rx", phys.Position{X: 5}, StationOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddStation("tx", phys.Position{}, StationOpts{}); err != nil {
			t.Fatal(err)
		}
		cfg := transport.DefaultTCPConfig(1)
		if mut != nil {
			mut(&cfg)
		}
		fl, err := w.AddTCPFlow(1, "tx", "rx", cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(4 * sim.Second)
		return fl
	}

	plain := run(nil)
	delayed := run(func(c *transport.TCPConfig) { c.AckDelay = 100 * sim.Millisecond })
	newReno := run(func(c *transport.TCPConfig) { c.NewReno = true })

	plainG := plain.Stats().UniquePackets
	if plainG == 0 {
		t.Fatal("baseline TCP carried nothing")
	}
	for name, fl := range map[string]*Flow{"delayed-ack": delayed, "newreno": newReno} {
		if g := fl.Stats().UniquePackets; g < plainG/2 {
			t.Errorf("%s collapsed throughput: %d vs %d packets", name, g, plainG)
		}
	}
	plainRatio := float64(plain.TCPRecv.AcksSent) / float64(plain.Stats().UniquePackets)
	delRatio := float64(delayed.TCPRecv.AcksSent) / float64(delayed.Stats().UniquePackets)
	if delRatio > 0.75*plainRatio {
		t.Errorf("delayed ACKs did not reduce ACK traffic: %.2f vs %.2f acks/pkt",
			delRatio, plainRatio)
	}
	// Delayed ACKs free reverse airtime: goodput should not fall by more
	// than ~20% and often rises.
	if float64(delayed.Stats().UniquePackets) < 0.8*float64(plainG) {
		t.Errorf("delayed ACKs cost too much goodput: %d vs %d",
			delayed.Stats().UniquePackets, plainG)
	}
}
