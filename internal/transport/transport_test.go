package transport

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"greedy80211/internal/sim"
)

func TestPacketString(t *testing.T) {
	d := &Packet{Flow: 1, Seq: 5, PayloadBytes: 1024}
	a := &Packet{Flow: 1, IsACK: true, AckSeq: 6}
	if d.String() == "" || a.String() == "" {
		t.Error("empty String()")
	}
}

func TestFlowStatsGoodput(t *testing.T) {
	s := FlowStats{UniqueBytes: 125000} // 1 Mbit
	if got := s.GoodputBps(sim.Second); got != 1e6 {
		t.Errorf("GoodputBps = %v, want 1e6", got)
	}
	if got := s.GoodputBps(0); got != 0 {
		t.Error("zero interval should have zero goodput")
	}
}

func TestCBRIntervalForRate(t *testing.T) {
	// 1024-byte packets at 8.192 Mbps → 1 ms.
	if got := CBRIntervalForRate(8.192e6, 1024); got != sim.Millisecond {
		t.Errorf("interval = %v, want 1ms", got)
	}
}

func TestCBRSourceGeneratesAtRate(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []*Packet
	out := OutputFunc(func(p *Packet) bool { got = append(got, p); return true })
	src := NewCBRSource(sched, out, 7, 512, sim.Millisecond)
	src.Start()
	sched.RunUntil(100 * sim.Millisecond)
	src.Stop()
	sched.RunUntil(200 * sim.Millisecond)

	// t=0 .. t=100ms inclusive at ~1ms spacing, ±1% jitter.
	if len(got) < 99 || len(got) > 103 {
		t.Errorf("generated %d packets, want ≈101", len(got))
	}
	for i, p := range got {
		if p.Seq != i || p.Flow != 7 || p.PayloadBytes != 512 || p.WireBytes != 512+UDPIPHeaderBytes {
			t.Fatalf("packet %d malformed: %+v", i, p)
		}
	}
	if src.Offered() != int64(len(got)) {
		t.Errorf("Offered = %d, want %d", src.Offered(), len(got))
	}
}

// Stop, Start after Stop and a second Start each leave exactly one chain
// of ticks: the packets after a restart come at the restart time and
// every interval after it, with seqs that run on unbroken, as a single
// source's would. A Stop with no later Start silences the source for
// good. Jitter is off so every tick time is exact.
func TestCBRSourceRestartKeepsOneChain(t *testing.T) {
	const restart = 10*sim.Millisecond + 500*sim.Microsecond
	tests := []struct {
		name string
		at   func(src *CBRSource) // runs at the restart time
		want []sim.Time
	}{
		{"stop then start", func(src *CBRSource) { src.Stop(); src.Start() }, ticksFrom(restart)},
		{"start twice", func(src *CBRSource) { src.Start() }, ticksFrom(restart)},
		{"start three times", func(src *CBRSource) { src.Start(); src.Start() }, ticksFrom(restart)},
		{"stop for good", func(src *CBRSource) { src.Stop() }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sched := sim.NewScheduler(1)
			var at []sim.Time
			seq := 0
			out := OutputFunc(func(p *Packet) bool {
				if p.Seq != seq {
					t.Fatalf("packet %d carries seq %d", seq, p.Seq)
				}
				seq++
				at = append(at, sched.Now())
				return true
			})
			src := NewCBRSource(sched, out, 1, 100, sim.Millisecond)
			src.jitter = 0
			src.Start()
			sched.At(restart, func() { tt.at(src) })
			sched.RunUntil(30 * sim.Millisecond)
			if tt.want == nil {
				sched.Run() // nothing may keep the stopped source alive
			}
			want := append(ticksFrom(0)[:11], tt.want...)
			if !reflect.DeepEqual(at, want) {
				t.Errorf("ticks at %v, want %v", at, want)
			}
			if src.Offered() != int64(len(want)) {
				t.Errorf("Offered = %d, want %d", src.Offered(), len(want))
			}
			if tt.want == nil && sched.Pending() != 0 {
				t.Errorf("Pending = %d after a stopped source drained, want 0", sched.Pending())
			}
		})
	}
}

// ticksFrom lists a jitter-free 1 ms source's tick times from start up
// to 30 ms.
func ticksFrom(start sim.Time) []sim.Time {
	var ts []sim.Time
	for t := start; t <= 30*sim.Millisecond; t += sim.Millisecond {
		ts = append(ts, t)
	}
	return ts
}

func TestCBRSourceCountsDrops(t *testing.T) {
	sched := sim.NewScheduler(1)
	out := OutputFunc(func(*Packet) bool { return false })
	src := NewCBRSource(sched, out, 1, 100, sim.Millisecond)
	src.Start()
	sched.RunUntil(10 * sim.Millisecond)
	if src.LocalDrops() != 11 {
		t.Errorf("LocalDrops = %d, want 11", src.LocalDrops())
	}
}

func TestUDPSinkDeduplicates(t *testing.T) {
	s := NewUDPSink()
	for _, seq := range []int{0, 1, 1, 2, 0} {
		s.Receive(&Packet{Seq: seq, PayloadBytes: 100})
	}
	s.Receive(&Packet{IsACK: true}) // ignored
	st := s.Stats()
	if st.UniquePackets != 3 || st.DuplicatePackets != 2 || st.UniqueBytes != 300 {
		t.Errorf("stats = %+v", st)
	}
}

// pipe is a bidirectional transport harness between a TCP sender and
// receiver with one-way delay, i.i.d. loss, and a queue of infinite depth.
type pipe struct {
	sched    *sim.Scheduler
	delay    sim.Time
	loss     float64
	rng      *rand.Rand
	toRecv   *TCPReceiver
	toSend   *TCPSender
	dataLost int
}

func (p *pipe) dataOut(pkt *Packet) bool {
	if p.rng.Float64() < p.loss {
		p.dataLost++
		return true // lost in transit, not locally
	}
	p.sched.Schedule(p.delay, func() { p.toRecv.Receive(pkt) })
	return true
}

func (p *pipe) ackOut(pkt *Packet) bool {
	if p.rng.Float64() < p.loss {
		return true
	}
	p.sched.Schedule(p.delay, func() { p.toSend.Receive(pkt) })
	return true
}

func newTCPPair(seed int64, delay sim.Time, loss float64) (*sim.Scheduler, *TCPSender, *TCPReceiver, *pipe) {
	sched := sim.NewScheduler(seed)
	p := &pipe{sched: sched, delay: delay, loss: loss, rng: rand.New(rand.NewSource(seed))}
	snd := NewTCPSender(sched, OutputFunc(p.dataOut), DefaultTCPConfig(1))
	rcv := NewTCPReceiver(1, OutputFunc(p.ackOut))
	p.toRecv = rcv
	p.toSend = snd
	return sched, snd, rcv, p
}

func TestTCPLosslessDelivery(t *testing.T) {
	sched, snd, rcv, _ := newTCPPair(1, 5*sim.Millisecond, 0)
	snd.Start()
	sched.RunUntil(2 * sim.Second)

	if rcv.Stats().UniquePackets == 0 {
		t.Fatal("nothing delivered")
	}
	if rcv.Stats().DuplicatePackets != 0 {
		t.Errorf("duplicates on a lossless pipe: %d", rcv.Stats().DuplicatePackets)
	}
	if snd.Retransmits != 0 || snd.Timeouts != 0 {
		t.Errorf("retransmits=%d timeouts=%d on lossless pipe", snd.Retransmits, snd.Timeouts)
	}
	// The receiver must have advanced contiguously.
	if int64(rcv.RcvNxt()) != rcv.Stats().UniquePackets {
		t.Errorf("rcvNxt %d != unique %d: gap on a lossless pipe",
			rcv.RcvNxt(), rcv.Stats().UniquePackets)
	}
	// cwnd should have opened well beyond 1.
	if snd.Cwnd() < 10 {
		t.Errorf("cwnd = %.1f after 2s lossless, want growth", snd.Cwnd())
	}
	// RTT estimate should be near 2×5ms.
	if srtt := snd.SRTT(); srtt < 9*sim.Millisecond || srtt > 30*sim.Millisecond {
		t.Errorf("SRTT = %v, want ≈10ms", srtt)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	sched, snd, rcv, p := newTCPPair(2, 5*sim.Millisecond, 0.05)
	snd.Start()
	sched.RunUntil(10 * sim.Second)

	if p.dataLost == 0 {
		t.Fatal("no losses injected")
	}
	if snd.Retransmits == 0 {
		t.Error("no retransmissions despite loss")
	}
	// Everything below rcvNxt was delivered in order: no holes remain
	// below the cumulative ack point by construction; check progress.
	if rcv.RcvNxt() < 1000 {
		t.Errorf("only %d in-order packets in 10s at 5%% loss", rcv.RcvNxt())
	}
	// Loss keeps the window below the cap.
	if snd.AvgCwnd() >= snd.cfg.MaxWindow {
		t.Errorf("avg cwnd %.1f pinned at cap despite loss", snd.AvgCwnd())
	}
}

func TestTCPTimeoutPath(t *testing.T) {
	// 60% loss forces timeouts (fast retransmit rarely completes).
	sched, snd, _, _ := newTCPPair(3, 5*sim.Millisecond, 0.6)
	snd.Start()
	sched.RunUntil(60 * sim.Second)

	if snd.Timeouts == 0 {
		t.Error("no RTO timeouts at 60% loss")
	}
	if snd.Cwnd() > snd.cfg.MaxWindow {
		t.Errorf("cwnd %.1f exceeded cap", snd.Cwnd())
	}
}

func TestTCPFastRecovery(t *testing.T) {
	sched, snd, rcv, p := newTCPPair(4, 5*sim.Millisecond, 0)
	snd.Start()
	sched.RunUntil(500 * sim.Millisecond) // let cwnd open
	// Drop exactly one data packet by swapping the output temporarily.
	dropped := false
	orig := snd.out
	snd.out = OutputFunc(func(pkt *Packet) bool {
		if !dropped && !pkt.IsACK {
			dropped = true
			return true
		}
		return orig.Output(pkt)
	})
	sched.RunUntil(510 * sim.Millisecond)
	snd.out = orig
	sched.RunUntil(2 * sim.Second)

	if !dropped {
		t.Fatal("never dropped a packet")
	}
	if snd.FastRecovery == 0 {
		t.Error("single loss in a large window should trigger fast recovery")
	}
	if snd.Timeouts != 0 {
		t.Error("single loss should not need an RTO")
	}
	if int64(rcv.RcvNxt()) != rcv.Stats().UniquePackets {
		t.Error("hole left after recovery")
	}
	_ = p
}

func TestTCPAvgCwndTracks(t *testing.T) {
	sched, snd, _, _ := newTCPPair(5, sim.Millisecond, 0)
	snd.Start()
	sched.RunUntil(sim.Second)
	avg := snd.AvgCwnd()
	if avg <= 1 || avg > snd.cfg.MaxWindow {
		t.Errorf("AvgCwnd = %.2f out of range", avg)
	}
}

func TestTCPConfigValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	out := OutputFunc(func(*Packet) bool { return true })
	for _, tt := range []struct {
		name string
		mut  func(*TCPConfig)
	}{
		{"zero MSS", func(c *TCPConfig) { c.MSS = 0 }},
		{"tiny window", func(c *TCPConfig) { c.MaxWindow = 0.5 }},
		{"bad RTO", func(c *TCPConfig) { c.MinRTO = 0 }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultTCPConfig(1)
			tt.mut(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted")
				}
			}()
			NewTCPSender(sched, out, cfg)
		})
	}
}

// Property: under arbitrary loss patterns, the receiver's cumulative point
// only advances over packets actually seen, and everything below it was
// delivered exactly in order (no phantom packets).
func TestPropertyTCPIntegrity(t *testing.T) {
	f := func(seed int64, lossRaw uint8) bool {
		loss := float64(lossRaw%80) / 100
		sched, snd, rcv, _ := newTCPPair(seed, 2*sim.Millisecond, loss)
		snd.Start()
		sched.RunUntil(3 * sim.Second)
		// rcvNxt never exceeds the highest sequence ever emitted (sndNxt
		// itself may rewind below rcvNxt after a go-back-N timeout).
		if rcv.RcvNxt() > snd.maxEmitted {
			return false
		}
		// Unique deliveries are at least the in-order prefix.
		if rcv.Stats().UniquePackets < int64(rcv.RcvNxt()) {
			return false
		}
		// Sender invariants.
		return snd.sndUna <= snd.sndNxt && snd.Cwnd() >= 1 &&
			snd.Cwnd() <= snd.cfg.MaxWindow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: goodput through the sink equals unique sequence count × size.
func TestPropertyUDPSinkAccounting(t *testing.T) {
	f := func(seqsRaw []uint8) bool {
		s := NewUDPSink()
		unique := make(map[int]bool)
		for _, q := range seqsRaw {
			seq := int(q % 32)
			s.Receive(&Packet{Seq: seq, PayloadBytes: 10})
			unique[seq] = true
		}
		st := s.Stats()
		return st.UniquePackets == int64(len(unique)) &&
			st.UniqueBytes == int64(10*len(unique)) &&
			st.UniquePackets+st.DuplicatePackets == int64(len(seqsRaw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
