package mac

import (
	"testing"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// lossyLoopChannel is loopChannel with per-frame drop control.
type lossyLoopChannel struct {
	sched *sim.Scheduler
	peers map[NodeID]Receiver
	// dropNext drops the next N frames of the given type.
	dropType  FrameType
	dropCount int
	dropped   int
	sent      []*Frame
}

func (c *lossyLoopChannel) Transmit(src NodeID, f *Frame, airtime sim.Time) {
	c.sent = append(c.sent, f)
	drop := false
	if c.dropCount > 0 && f.Type == c.dropType {
		c.dropCount--
		c.dropped++
		drop = true
	}
	for id, rcv := range c.peers {
		if id == src {
			continue
		}
		rcv := rcv
		c.sched.Schedule(0, func() { rcv.ChannelBusy(true) })
		if drop {
			c.sched.Schedule(airtime, func() { rcv.ChannelBusy(false) })
			continue
		}
		c.sched.Schedule(airtime, func() {
			rcv.ChannelBusy(false)
			rcv.RxEnd(f, RxInfo{Decoded: true, RSSIDBm: -50})
		})
	}
}

func newLossyPair(t *testing.T, useRTS bool) (*sim.Scheduler, *lossyLoopChannel, *DCF, *DCF, *recordingUpper, *recordingUpper) {
	t.Helper()
	sched := sim.NewScheduler(42)
	ch := &lossyLoopChannel{sched: sched, peers: make(map[NodeID]Receiver)}
	upA, upB := &recordingUpper{}, &recordingUpper{}
	p := phys.Params80211B()
	a := New(sched, ch, upA, Config{ID: 1, Params: p, UseRTSCTS: useRTS})
	b := New(sched, ch, upB, Config{ID: 2, Params: p, UseRTSCTS: useRTS})
	ch.peers[1] = a
	ch.peers[2] = b
	return sched, ch, a, b, upA, upB
}

// Lost MAC ACK: the sender retransmits; the receiver must deliver the
// payload exactly once and re-acknowledge the duplicate.
func TestLostACKCausesDuplicateSuppressedRetry(t *testing.T) {
	sched, ch, a, b, upA, upB := newLossyPair(t, false)
	ch.dropType = FrameACK
	ch.dropCount = 1
	a.Send(2, "payload", 1024)
	sched.RunUntil(sim.Second)

	if ch.dropped != 1 {
		t.Fatalf("dropped %d ACKs, want 1", ch.dropped)
	}
	if len(upB.delivered) != 1 {
		t.Errorf("delivered %d copies, want exactly 1", len(upB.delivered))
	}
	if b.Counters().DataDuplicates != 1 {
		t.Errorf("duplicates = %d, want 1 (the retransmission)", b.Counters().DataDuplicates)
	}
	if b.Counters().ACKSent != 2 {
		t.Errorf("ACKs sent = %d, want 2 (original + for the retry)", b.Counters().ACKSent)
	}
	if len(upA.done) != 1 || !upA.done[0] {
		t.Errorf("sender outcome = %v, want success after retry", upA.done)
	}
	if a.Counters().ACKTimeouts != 1 {
		t.Errorf("ACK timeouts = %d, want 1", a.Counters().ACKTimeouts)
	}
}

// Lost CTS: the RTS is retried and the exchange then completes.
func TestLostCTSRetriesRTS(t *testing.T) {
	sched, ch, a, b, upA, upB := newLossyPair(t, true)
	ch.dropType = FrameCTS
	ch.dropCount = 2
	a.Send(2, nil, 1024)
	sched.RunUntil(sim.Second)

	if a.Counters().RTSSent != 3 {
		t.Errorf("RTS sent = %d, want 3 (2 lost CTSes)", a.Counters().RTSSent)
	}
	if a.Counters().CTSTimeouts != 2 {
		t.Errorf("CTS timeouts = %d, want 2", a.Counters().CTSTimeouts)
	}
	if len(upB.delivered) != 1 || len(upA.done) != 1 || !upA.done[0] {
		t.Error("exchange did not complete after CTS losses")
	}
	_ = b
}

// A lost data frame under RTS/CTS: the retry goes through the full
// RTS/CTS cycle again (long retry path).
func TestLostDataUnderRTSRetries(t *testing.T) {
	sched, ch, a, _, upA, upB := newLossyPair(t, true)
	ch.dropType = FrameData
	ch.dropCount = 1
	a.Send(2, nil, 1024)
	sched.RunUntil(sim.Second)

	if a.Counters().DataSent != 2 || a.Counters().DataRetries != 1 {
		t.Errorf("data sent/retries = %d/%d, want 2/1",
			a.Counters().DataSent, a.Counters().DataRetries)
	}
	if a.Counters().RTSSent != 2 {
		t.Errorf("RTS sent = %d, want 2 (fresh cycle per retry)", a.Counters().RTSSent)
	}
	if len(upB.delivered) != 1 || !upA.done[0] {
		t.Error("delivery failed after data loss")
	}
}

// An RTS addressed to a station whose SIFS response slot is already
// committed must go unanswered.
func TestResponseSlotConflictDropsCTS(t *testing.T) {
	sched := sim.NewScheduler(42)
	ch := &blackHoleChannel{}
	p := phys.Params80211B()
	b := New(sched, ch, &recordingUpper{}, Config{ID: 2, Params: p})

	// First a data frame for us (commits the slot to an ACK), then an RTS
	// in the same instant.
	b.RxEnd(&Frame{Type: FrameData, Src: 3, Dst: 2, Seq: 1, MACBytes: 1052},
		RxInfo{Decoded: true, RSSIDBm: -50})
	b.RxEnd(&Frame{Type: FrameRTS, Src: 4, Dst: 2, Duration: 2 * sim.Millisecond, MACBytes: 20},
		RxInfo{Decoded: true, RSSIDBm: -50})
	sched.RunUntil(sim.Millisecond)

	if len(ch.sent) != 1 || ch.sent[0].Type != FrameACK {
		t.Errorf("sent %v, want exactly the ACK (CTS dropped by slot conflict)", ch.sent)
	}
}

// EIFS is cleared by a subsequent correct reception.
func TestEIFSClearedByGoodFrame(t *testing.T) {
	sched := sim.NewScheduler(42)
	ch := &blackHoleChannel{}
	p := phys.Params80211B()
	d := New(sched, ch, &recordingUpper{}, Config{ID: 1, Params: p})

	d.RxEnd(&Frame{Type: FrameData, Src: 3, Dst: 4, Seq: 1, MACBytes: 1052},
		RxInfo{Decoded: false, Corruption: phys.FrameCorruption{Corrupted: true}})
	// A decoded overheard frame (zero NAV) clears the EIFS condition.
	d.RxEnd(&Frame{Type: FrameACK, Src: 4, Dst: 3, Duration: 0, MACBytes: 14},
		RxInfo{Decoded: true, RSSIDBm: -50})
	d.Send(2, nil, 1024)
	var firstTx sim.Time = -1
	for firstTx < 0 && sched.Pending() > 0 {
		sched.RunUntil(sched.Now() + sim.Microsecond)
		if len(ch.sent) > 0 {
			firstTx = sched.Now()
		}
	}
	// DIFS (50µs) + up to CWmin backoff — but never the 364µs EIFS floor
	// would enforce... the draw may exceed it, so assert only that the
	// deferral base is DIFS: earliest possible tx is DIFS, not EIFS.
	if firstTx < p.DIFS() {
		t.Errorf("tx at %v, before DIFS", firstTx)
	}
	if firstTx >= p.EIFS()+sim.Time(p.CWMin)*p.SlotTime {
		t.Errorf("tx at %v suggests EIFS was still in force", firstTx)
	}
}

// Duplicate-detection state is per source station.
func TestDedupPerSource(t *testing.T) {
	sched := sim.NewScheduler(42)
	ch := &blackHoleChannel{}
	up := &recordingUpper{}
	b := New(sched, ch, up, Config{ID: 2, Params: phys.Params80211B()})

	// Same seq from two different sources: both must be delivered.
	b.RxEnd(&Frame{Type: FrameData, Src: 8, Dst: 2, Seq: 5, MACBytes: 500},
		RxInfo{Decoded: true, RSSIDBm: -50})
	b.RxEnd(&Frame{Type: FrameData, Src: 9, Dst: 2, Seq: 5, MACBytes: 500},
		RxInfo{Decoded: true, RSSIDBm: -50})
	if len(up.delivered) != 2 {
		t.Errorf("delivered %d, want 2 (dedup must be per source)", len(up.delivered))
	}
}

// A station that is purely a receiver still answers protocol frames while
// its own queue is empty.
func TestPureReceiverResponds(t *testing.T) {
	sched := sim.NewScheduler(42)
	ch := &blackHoleChannel{}
	b := New(sched, ch, &recordingUpper{}, Config{ID: 2, Params: phys.Params80211B()})

	b.RxEnd(&Frame{Type: FrameRTS, Src: 1, Dst: 2, Duration: 3 * sim.Millisecond, MACBytes: 20},
		RxInfo{Decoded: true, RSSIDBm: -50})
	sched.RunUntil(sim.Millisecond)
	if len(ch.sent) != 1 || ch.sent[0].Type != FrameCTS {
		t.Fatalf("pure receiver sent %v, want CTS", ch.sent)
	}
	// The CTS duration must be derived from the RTS duration.
	p := phys.Params80211B()
	want := CTSNAVFromRTS(p, 3*sim.Millisecond)
	if ch.sent[0].Duration != want {
		t.Errorf("CTS NAV = %v, want %v", ch.sent[0].Duration, want)
	}
}

// timestampChannel records when each frame was transmitted.
type timestampChannel struct {
	sched *sim.Scheduler
	sent  []*Frame
	at    []sim.Time
}

func (c *timestampChannel) Transmit(_ NodeID, f *Frame, _ sim.Time) {
	c.sent = append(c.sent, f)
	c.at = append(c.at, c.sched.Now())
}

// Backoff freeze: a busy interval mid-countdown defers the transmission
// to after the busy period ends plus a fresh DIFS, and the remaining
// countdown never exceeds the original draw (≤ CWmin slots).
func TestBackoffFreezeDefersTransmission(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sched := sim.NewScheduler(seed)
		ch := &timestampChannel{sched: sched}
		p := phys.Params80211B()
		d := New(sched, ch, &recordingUpper{}, Config{ID: 1, Params: p})

		// Force a backoff by making the medium busy at Send time.
		d.ChannelBusy(true)
		d.Send(2, nil, 1024)
		d.ChannelBusy(false) // idle at t=0: DIFS, then countdown
		busyStart := p.DIFS() + 2*p.SlotTime
		busyEnd := busyStart + 5*sim.Millisecond
		sched.At(busyStart, func() { d.ChannelBusy(true) })
		sched.At(busyEnd, func() { d.ChannelBusy(false) })
		sched.RunUntil(20 * sim.Millisecond)

		if len(ch.sent) == 0 {
			t.Fatalf("seed %d: nothing transmitted", seed)
		}
		// Only the first attempt reflects the frozen countdown; later
		// frames are ACK-timeout retries (the channel never delivers).
		tx := ch.at[0]
		if tx >= busyStart && tx < busyEnd {
			t.Fatalf("seed %d: transmitted at %v inside the busy window", seed, tx)
		}
		if tx >= busyEnd {
			// Resumed countdown: after busy + DIFS, within the residual
			// CWmin-slot budget.
			min := busyEnd + p.DIFS()
			max := min + sim.Time(p.CWMin)*p.SlotTime
			if tx < min || tx > max {
				t.Errorf("seed %d: resumed tx at %v, want within [%v, %v]", seed, tx, min, max)
			}
		}
	}
}

// A packet handed down at the very instant the station's own response
// ends, dispatched ahead of the station's tx timer, arrives to a medium
// that has not been idle at all: it owes DIFS plus a backoff (§9.2.5.1),
// not an immediate transmission on top of the exchange the CTS granted.
func TestSendAtOwnResponseEndDefers(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sched := sim.NewScheduler(seed)
		ch := &timestampChannel{sched: sched}
		p := phys.Params80211B()
		d := New(sched, ch, &recordingUpper{}, Config{ID: 2, Params: p})

		ctsEnd := p.SIFS + p.TxDuration(phys.CTSFrameBytes, p.BasicRateBps)
		// Queued before the CTS arms the tx timer, so at ctsEnd this
		// event dispatches first and sees the station's stale busy end.
		sched.At(ctsEnd, func() { d.Send(3, nil, 1024) })
		d.RxEnd(&Frame{Type: FrameRTS, Src: 1, Dst: 2, Duration: 3 * sim.Millisecond, MACBytes: phys.RTSFrameBytes},
			RxInfo{Decoded: true, RSSIDBm: -50})
		sched.RunUntil(20 * sim.Millisecond)

		if len(ch.sent) < 2 || ch.sent[0].Type != FrameCTS || ch.sent[1].Type != FrameData {
			t.Fatalf("seed %d: sent %v, want CTS then DATA", seed, ch.sent)
		}
		if ch.at[0]+p.TxDuration(phys.CTSFrameBytes, p.BasicRateBps) != ctsEnd {
			t.Fatalf("seed %d: CTS at %v does not end at %v", seed, ch.at[0], ctsEnd)
		}
		min := ctsEnd + p.DIFS()
		max := min + sim.Time(p.CWMin)*p.SlotTime
		if tx := ch.at[1]; tx < min || tx > max {
			t.Errorf("seed %d: DATA at %v, want within [%v, %v] (DIFS plus a backoff after the CTS)",
				seed, tx, min, max)
		}
	}
}
