package mac

import (
	"fmt"
	"math/rand"

	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// accessState tracks the DCF's transmitter-side progress for the MSDU at
// the head of its queue.
type accessState int

const (
	accessIdle    accessState = iota + 1 // nothing to send
	accessContend                        // waiting out IFS + backoff
	accessTxRTS                          // RTS on the air
	accessWaitCTS                        // CTS timeout armed
	accessTxData                         // data frame on the air
	accessWaitACK                        // ACK timeout armed
)

// respKind labels the SIFS-scheduled response a station owes.
type respKind int

const (
	respNone respKind = iota
	respCTS
	respACK
	respFakeACK    // ACK for a corrupted frame (misbehavior 3)
	respSpoofedACK // ACK impersonating another receiver (misbehavior 2)
	respOwnData    // our data frame following a received CTS
)

// Config parameterizes a DCF instance.
type Config struct {
	// ID is the station's address on the medium.
	ID NodeID
	// Params carries the band constants (timings, CW bounds, rates).
	Params phys.Params
	// UseRTSCTS enables the RTS/CTS exchange for MSDUs of at least
	// RTSThresholdBytes MAC bytes. The paper's simulations enable it.
	UseRTSCTS bool
	// RTSThresholdBytes is the minimum MAC frame size protected by
	// RTS/CTS; zero protects everything (ns-2's default).
	RTSThresholdBytes int
	// QueueCap bounds the MSDU queue; zero means the default of 50
	// (ns-2's DropTail default).
	QueueCap int
	// Policy is the station's feedback behavior; nil means NormalPolicy.
	Policy ReceiverPolicy
	// Observer vets incoming NAV values and ACKs; nil means
	// PassiveObserver.
	Observer Observer
	// SpoofEmulationTo lists destinations for which an ACK timeout is
	// treated as success without retransmission — the testbed's emulation
	// of a spoofed-ACK victim (Table VIII).
	SpoofEmulationTo map[NodeID]bool
	// CWMinCapTo lists destinations for which the contention window is
	// pinned at CWMin — the testbed's emulation of a fake-ACK beneficiary
	// (Table IX).
	CWMinCapTo map[NodeID]bool
	// AutoRate selects per-destination data rates when non-nil (auto-rate
	// extension); nil uses Params.DataRateBps for every data frame.
	AutoRate RateController
	// Frames recycles the frames this station builds (data, RTS, CTS,
	// ACK, spoof). A nil pool heap-allocates every frame, which is the
	// behavior tests and cold paths rely on; worlds share one pool across
	// all their stations.
	Frames *FramePool
}

// DCF is one station's 802.11 distributed coordination function. It is
// driven entirely by the simulation scheduler: not safe for concurrent use.
type DCF struct {
	cfg      Config
	sched    *sim.Scheduler
	channel  Channel
	upper    Upper
	rng      *rand.Rand
	policy   ReceiverPolicy
	observer Observer

	// Medium state.
	busyPhys    bool
	txUntil     sim.Time
	navUntil    sim.Time
	wasIdle     bool
	lastBusyEnd sim.Time
	useEIFS     bool

	// Transmit-side state.
	access           accessState
	queue            []*Frame
	current          *Frame
	seq              uint16
	shortRetries     int
	longRetries      int
	cw               int
	backoffRemaining int
	drawPending      bool
	needBackoff      bool
	inCountdown      bool
	countdownStart   sim.Time

	// Pending SIFS response.
	respFrame *Frame
	respWhat  respKind

	// Duplicate detection: last accepted sequence number per source.
	lastSeq map[NodeID]uint16

	accessTimer *sim.Timer
	waitTimer   *sim.Timer
	respTimer   *sim.Timer
	txTimer     *sim.Timer
	navTimer    *sim.Timer

	counters Counters

	// probe, when non-nil, observes MAC-internal state-machine events
	// (see probe.go). Every emission site guards on the nil check, so a
	// station without a probe pays nothing. pe is the scratch event the
	// sites fill before calling emit, which delivers a pointer to it —
	// one struct build per probe event instead of build-plus-copy.
	probe Probe
	pe    ProbeEvent

	// Always-on telemetry accounting (see internal/metrics): time the
	// virtual carrier sense alone held the medium busy, and time spent
	// counting down backoff slots. Both keep an open interval that the
	// accessors close against the current clock.
	navOnly      bool
	navOnlySince sim.Time
	navBlocked   sim.Time
	backoffWait  sim.Time
}

// New constructs a DCF bound to the scheduler, medium, and upper layer.
func New(sched *sim.Scheduler, channel Channel, upper Upper, cfg Config) *DCF {
	if sched == nil || channel == nil || upper == nil {
		panic("mac: New requires scheduler, channel, and upper layer")
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 50
	}
	d := &DCF{
		cfg:      cfg,
		sched:    sched,
		channel:  channel,
		upper:    upper,
		rng:      sched.RNG(),
		policy:   cfg.Policy,
		observer: cfg.Observer,
		access:   accessIdle,
		cw:       cfg.Params.CWMin,
		wasIdle:  true,
		lastSeq:  make(map[NodeID]uint16),
	}
	if d.policy == nil {
		d.policy = NormalPolicy{}
	}
	if d.observer == nil {
		d.observer = PassiveObserver{}
	}
	d.accessTimer = sim.NewTimer(sched, d.onAccessTimer)
	d.waitTimer = sim.NewTimer(sched, d.onResponseTimeout)
	d.respTimer = sim.NewTimer(sched, d.onRespond)
	d.txTimer = sim.NewTimer(sched, d.onTxDone)
	d.navTimer = sim.NewTimer(sched, d.onNAVExpire)
	return d
}

// ID reports the station address.
func (d *DCF) ID() NodeID { return d.cfg.ID }

// Counters exposes the station's accumulated MAC statistics.
func (d *DCF) Counters() *Counters { return &d.counters }

// NAVBlocked reports the cumulative time during which only this station's
// virtual carrier sense (NAV) held the medium busy — the physical channel
// was idle and the station was not transmitting. Inflated-NAV attacks
// show up here on their victims.
func (d *DCF) NAVBlocked() sim.Time {
	t := d.navBlocked
	if d.navOnly {
		// Close the open interval: the NAV expiry event may not have
		// fired yet if the run ended first.
		end := min(d.sched.Now(), d.navUntil)
		if end > d.navOnlySince {
			t += end - d.navOnlySince
		}
	}
	return t
}

// BackoffWait reports the cumulative time this station spent counting
// down backoff slots on an idle medium.
func (d *DCF) BackoffWait() sim.Time {
	t := d.backoffWait
	if d.inCountdown {
		t += d.sched.Now() - d.countdownStart
	}
	return t
}

// QueueLen reports the number of MSDUs queued behind the one in service.
func (d *DCF) QueueLen() int { return len(d.queue) }

// NAVUntil reports when the station's virtual carrier sense clears.
func (d *DCF) NAVUntil() sim.Time { return d.navUntil }

// Send enqueues an upper-layer packet for transmission to dst. It reports
// false when the queue is full and the packet was dropped.
func (d *DCF) Send(dst NodeID, payload any, payloadBytes int) bool {
	if dst == d.cfg.ID {
		panic(fmt.Sprintf("mac: station %d sending to itself", d.cfg.ID))
	}
	d.counters.MSDUEnqueued++
	if len(d.queue) >= d.cfg.QueueCap {
		d.counters.MSDUQueueDrop++
		if d.probe != nil {
			d.pe = ProbeEvent{Kind: ProbeQueueDrop, QueueLen: len(d.queue), Dst: dst}
			d.emit()
		}
		return false
	}
	d.seq++
	f := d.cfg.Frames.Get()
	f.Type = FrameData
	f.Src = d.cfg.ID
	f.Dst = dst
	f.MACBytes = payloadBytes + phys.DataHeaderBytes
	f.Seq = d.seq
	f.Payload = payload
	f.PayloadBytes = payloadBytes
	d.queue = append(d.queue, f)
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeEnqueue, QueueLen: len(d.queue), Frame: FrameData, Dst: dst, Seq: f.Seq}
		d.emit()
	}
	if d.access == accessIdle {
		d.access = accessContend
		// IEEE 802.11 §9.2.5.1: immediate transmission is allowed only
		// when the medium has been idle for at least an IFS; a packet
		// arriving to a busy (or too-recently-busy) medium owes a backoff.
		if !d.needBackoff &&
			(!d.mediumIdle() || d.sched.Now() < d.idleSince()+d.currentIFS()) {
			d.needBackoff = true
			d.drawPending = true
		}
		d.kickAccess()
	}
	return true
}

// --- medium-state bookkeeping -------------------------------------------

func (d *DCF) mediumIdle() bool {
	now := d.sched.Now()
	return !d.busyPhys && now >= d.txUntil && now >= d.navUntil
}

// idleSince reports when the medium last went idle. lastBusyEnd alone
// lags the end of the station's own transmission until the tx timer
// runs onTxDone, and a handler dispatched at that same instant ahead of
// the timer (an upper-layer Send) must not see the stale value.
func (d *DCF) idleSince() sim.Time { return max(d.lastBusyEnd, d.txUntil) }

// refresh recomputes the idle/busy view of the medium and reacts to
// transitions. It is called after any change to the inputs of mediumIdle.
func (d *DCF) refresh() {
	idle := d.mediumIdle()
	// NAV-blocked accounting: every input of the "NAV alone blocks an
	// otherwise-idle channel" predicate changes only through paths that
	// call refresh (ChannelBusy, updateNAV, transmit, onTxDone, and the
	// NAV expiry timer), so transitions are observed exactly.
	now := d.sched.Now()
	navOnly := !d.busyPhys && now >= d.txUntil && now < d.navUntil
	if navOnly != d.navOnly {
		if d.navOnly {
			d.navBlocked += now - d.navOnlySince
			if d.probe != nil {
				d.pe = ProbeEvent{Kind: ProbeNAVBlockedEnd}
				d.emit()
			}
		} else {
			d.navOnlySince = now
			if d.probe != nil {
				d.pe = ProbeEvent{Kind: ProbeNAVBlockedStart, Until: d.navUntil}
				d.emit()
			}
		}
		d.navOnly = navOnly
	}
	switch {
	case idle && !d.wasIdle:
		d.wasIdle = true
		d.lastBusyEnd = d.sched.Now()
		d.kickAccess()
	case !idle && d.wasIdle:
		d.wasIdle = false
		d.pauseCountdown()
	}
}

// ChannelBusy implements Receiver.
func (d *DCF) ChannelBusy(busy bool) {
	d.busyPhys = busy
	if d.probe != nil {
		k := ProbeBusyEnd
		if busy {
			k = ProbeBusyStart
		}
		d.pe = ProbeEvent{Kind: k}
		d.emit()
	}
	d.refresh()
}

func (d *DCF) updateNAV(dur sim.Time) {
	if dur <= 0 {
		return
	}
	expiry := d.sched.Now() + dur
	if expiry <= d.navUntil {
		return
	}
	d.navUntil = expiry
	d.navTimer.StartAt(expiry)
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeNAVUpdate, Until: expiry}
		d.emit()
	}
	d.refresh()
}

// onNAVExpire runs when the NAV clears. StartAt replaces any pending
// expiry, so the timer fires exactly once, at the final expiry time.
func (d *DCF) onNAVExpire() {
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeNAVExpire, Until: d.navUntil}
		d.emit()
	}
	d.refresh()
}

// currentIFS is DIFS normally, EIFS after a corrupted reception.
func (d *DCF) currentIFS() sim.Time {
	if d.useEIFS {
		return d.cfg.Params.EIFS()
	}
	return d.cfg.Params.DIFS()
}

// --- contention ----------------------------------------------------------

func (d *DCF) drawBackoff() {
	cw := d.cw
	// Table IX emulation: the contention window is pinned at CWmin for
	// transmissions toward the capped destination.
	if d.current != nil && d.cfg.CWMinCapTo[d.current.Dst] && cw > d.cfg.Params.CWMin {
		cw = d.cfg.Params.CWMin
	}
	d.counters.CWSum += int64(cw)
	d.counters.CWSamples++
	if d.counters.CWHist == nil {
		d.counters.CWHist = make(map[int]int64)
	}
	d.counters.CWHist[cw]++
	d.backoffRemaining = d.rng.Intn(cw + 1)
	d.drawPending = false
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeBackoffDraw, CW: cw, Slots: d.backoffRemaining}
		d.emit()
	}
}

func (d *DCF) pauseCountdown() {
	if d.inCountdown {
		d.backoffWait += d.sched.Now() - d.countdownStart
		elapsed := int((d.sched.Now() - d.countdownStart) / d.cfg.Params.SlotTime)
		if elapsed > d.backoffRemaining {
			elapsed = d.backoffRemaining
		}
		d.backoffRemaining -= elapsed
		d.inCountdown = false
		if d.probe != nil {
			d.pe = ProbeEvent{Kind: ProbeBackoffFreeze, Slots: d.backoffRemaining}
			d.emit()
		}
	}
	d.accessTimer.Stop()
}

// kickAccess advances the transmit side toward the next transmission
// whenever the medium is idle. It implements: wait IFS, then count down the
// backoff, then transmit; stations with no backoff owed (fresh arrival to a
// long-idle medium) may transmit right after IFS.
func (d *DCF) kickAccess() {
	if d.access != accessContend && !(d.access == accessIdle && d.needBackoff) {
		return
	}
	if !d.mediumIdle() {
		return
	}
	if d.inCountdown && d.accessTimer.Pending() {
		return // countdown already in progress; let it run
	}
	now := d.sched.Now()
	ifsEnd := d.idleSince() + d.currentIFS()
	if now < ifsEnd {
		d.inCountdown = false
		if d.probe != nil {
			d.pe = ProbeEvent{Kind: ProbeIFSDefer, Until: ifsEnd, EIFS: d.useEIFS}
			d.emit()
		}
		d.accessTimer.StartAt(ifsEnd)
		return
	}
	if d.needBackoff {
		if d.drawPending {
			d.drawBackoff()
		}
		if d.backoffRemaining > 0 {
			d.inCountdown = true
			d.countdownStart = now
			if d.probe != nil {
				d.pe = ProbeEvent{Kind: ProbeBackoffResume, Slots: d.backoffRemaining}
				d.emit()
			}
			d.accessTimer.Start(sim.Time(d.backoffRemaining) * d.cfg.Params.SlotTime)
			return
		}
		d.needBackoff = false // post-backoff complete
	}
	if d.access != accessContend {
		return // post-backoff finished with nothing to send
	}
	d.transmitCurrent()
}

func (d *DCF) onAccessTimer() {
	if !d.mediumIdle() {
		// A busy transition should have cancelled us; be defensive.
		if d.inCountdown {
			d.backoffWait += d.sched.Now() - d.countdownStart
			d.inCountdown = false
			if d.probe != nil {
				d.pe = ProbeEvent{Kind: ProbeBackoffFreeze, Slots: d.backoffRemaining}
				d.emit()
			}
		}
		return
	}
	if d.inCountdown {
		d.backoffWait += d.sched.Now() - d.countdownStart
		d.backoffRemaining = 0
		d.inCountdown = false
		d.needBackoff = false
		if d.probe != nil {
			d.pe = ProbeEvent{Kind: ProbeBackoffExpire}
			d.emit()
		}
	}
	d.kickAccess()
}

func (d *DCF) useRTSFor(f *Frame) bool {
	return d.cfg.UseRTSCTS && f.MACBytes >= d.cfg.RTSThresholdBytes
}

func (d *DCF) transmitCurrent() {
	if d.current == nil {
		if len(d.queue) == 0 {
			d.access = accessIdle
			return
		}
		d.current = d.queue[0]
		copy(d.queue, d.queue[1:])
		d.queue[len(d.queue)-1] = nil
		d.queue = d.queue[:len(d.queue)-1]
		d.shortRetries = 0
		d.longRetries = 0
	}
	if d.useRTSFor(d.current) {
		rts := d.cfg.Frames.Get()
		rts.Type = FrameRTS
		rts.Src = d.cfg.ID
		rts.Dst = d.current.Dst
		rts.MACBytes = phys.RTSFrameBytes
		rts.Duration = ClampNAV(d.policy.OutgoingDuration(FrameRTS,
			RTSNAVAtRate(d.cfg.Params, d.current.MACBytes, d.dataRateFor(d.current.Dst))))
		d.counters.RTSSent++
		d.access = accessTxRTS
		if d.probe != nil {
			d.pe = ProbeEvent{Kind: ProbeTxContend, Frame: FrameRTS, Dst: rts.Dst, Seq: d.current.Seq}
			d.emit()
		}
		d.transmit(rts, d.cfg.Params.BasicRateBps)
		// The medium holds its own references for in-flight copies; the
		// MAC is done with the RTS the moment it is on the air.
		rts.Release()
		return
	}
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeTxContend, Frame: FrameData, Dst: d.current.Dst, Seq: d.current.Seq}
		d.emit()
	}
	d.startDataTx()
}

// dataRateFor reports the PHY rate for data frames toward dst.
func (d *DCF) dataRateFor(dst NodeID) int64 {
	if d.cfg.AutoRate != nil {
		return d.cfg.AutoRate.DataRate(dst)
	}
	return d.cfg.Params.DataRateBps
}

func (d *DCF) startDataTx() {
	d.current.Duration = ClampNAV(d.policy.OutgoingDuration(FrameData, DataNAV(d.cfg.Params)))
	d.current.Retry = d.longRetries > 0 || d.shortRetries > 0
	d.counters.DataSent++
	if d.current.Retry {
		d.counters.DataRetries++
	}
	d.access = accessTxData
	d.transmit(d.current, d.dataRateFor(d.current.Dst))
}

// transmit puts f on the air and arms the tx-done timer.
func (d *DCF) transmit(f *Frame, bps int64) {
	f.TxRate = bps
	airtime := d.cfg.Params.TxDuration(f.MACBytes, bps)
	d.txUntil = d.sched.Now() + airtime
	d.txTimer.StartAt(d.txUntil)
	d.channel.Transmit(d.cfg.ID, f, airtime)
	d.refresh()
}

func (d *DCF) onTxDone() {
	switch d.access {
	case accessTxRTS:
		d.access = accessWaitCTS
		d.waitTimer.Start(d.cfg.Params.CTSTimeout())
	case accessTxData:
		if d.cfg.SpoofEmulationTo[d.current.Dst] {
			if d.cfg.AutoRate != nil {
				d.cfg.AutoRate.OnTxOutcome(d.current.Dst, true)
			}
			// Testbed emulation: the victim sender believes every data
			// frame is acknowledged (Table VIII). The frame itself may or
			// may not have been delivered — the medium decided that.
			d.refresh()
			d.finishCurrent(true)
			return
		}
		d.access = accessWaitACK
		d.waitTimer.Start(d.cfg.Params.ACKTimeout())
	}
	d.refresh()
}

// effectiveCWMax honors the per-destination CWMin pin used by the fake-ACK
// testbed emulation (Table IX).
func (d *DCF) effectiveCWMax() int {
	if d.current != nil && d.cfg.CWMinCapTo[d.current.Dst] {
		return d.cfg.Params.CWMin
	}
	return d.cfg.Params.CWMax
}

func (d *DCF) doubleCW() {
	d.cw = 2*(d.cw+1) - 1
	if max := d.effectiveCWMax(); d.cw > max {
		d.cw = max
	}
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeCWDouble, CW: d.cw}
		d.emit()
	}
}

func (d *DCF) resetCW() {
	d.cw = d.cfg.Params.CWMin
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeCWReset, CW: d.cw}
		d.emit()
	}
}

// onResponseTimeout handles a missing CTS or ACK.
func (d *DCF) onResponseTimeout() {
	switch d.access {
	case accessWaitCTS:
		d.counters.CTSTimeouts++
		d.shortRetries++
		d.counters.RTSRetries++
		if d.probe != nil && d.current != nil {
			d.pe = ProbeEvent{Kind: ProbeRetry, Retries: d.shortRetries, Dst: d.current.Dst, Seq: d.current.Seq}
			d.emit()
		}
		if d.shortRetries > d.cfg.Params.ShortRetryLimit {
			d.finishCurrent(false)
			return
		}
	case accessWaitACK:
		d.counters.ACKTimeouts++
		if d.cfg.AutoRate != nil && d.current != nil {
			d.cfg.AutoRate.OnTxOutcome(d.current.Dst, false)
		}
		d.longRetries++
		if d.probe != nil && d.current != nil {
			d.pe = ProbeEvent{Kind: ProbeRetry, Long: true, Retries: d.longRetries, Dst: d.current.Dst, Seq: d.current.Seq}
			d.emit()
		}
		if d.longRetries > d.cfg.Params.LongRetryLimit {
			d.finishCurrent(false)
			return
		}
	default:
		return
	}
	d.doubleCW()
	d.retryAccess()
}

func (d *DCF) retryAccess() {
	d.access = accessContend
	d.needBackoff = true
	d.drawPending = true
	d.kickAccess()
}

// finishCurrent completes service of the in-flight MSDU.
func (d *DCF) finishCurrent(ok bool) {
	f := d.current
	d.current = nil
	if d.probe != nil && f != nil {
		d.pe = ProbeEvent{Kind: ProbeMSDUDone, OK: ok, Frame: f.Type, Dst: f.Dst, Seq: f.Seq}
		d.emit()
	}
	d.waitTimer.Stop()
	if ok {
		d.counters.MSDUSuccess++
	} else {
		d.counters.MSDURetryDrop++
	}
	d.resetCW()
	d.shortRetries = 0
	d.longRetries = 0
	d.needBackoff = true // post-backoff
	d.drawPending = true
	if len(d.queue) > 0 {
		d.access = accessContend
	} else {
		d.access = accessIdle
	}
	d.upper.TxDone(f, ok)
	// The MSDU's MAC lifecycle is over; copies still propagating on the
	// medium hold their own references.
	f.Release()
	d.kickAccess()
}

// --- reception -----------------------------------------------------------

// RxEnd implements Receiver.
func (d *DCF) RxEnd(f *Frame, info RxInfo) {
	if !info.Decoded {
		d.counters.CorruptedRx++
		d.useEIFS = true
		// Misbehavior 3 hook: a corrupted data frame whose addressing
		// survived shows this station it was the intended receiver.
		if f.Type == FrameData && f.Dst == d.cfg.ID &&
			!info.Corruption.DstHit && !info.Corruption.SrcHit &&
			d.policy.AckCorrupted(f.Src, info.Corruption) {
			d.scheduleResponse(d.ackFrameFor(f.Src), respFakeACK)
		}
		return
	}
	d.useEIFS = false
	d.observer.OnOverheard(f, info.RSSIDBm)
	if f.Dst == d.cfg.ID {
		switch f.Type {
		case FrameRTS:
			d.handleRTS(f)
		case FrameCTS:
			d.handleCTS(f)
		case FrameData:
			d.handleData(f, info)
		case FrameACK:
			d.handleACK(f, info)
		}
		return
	}
	// Overheard frame: virtual carrier sense, via the observer's filter
	// (GRC clamps inflated NAVs here).
	dur := d.observer.FilterNAV(f, info.RSSIDBm)
	if dur < f.Duration {
		d.counters.NAVCorrections++
	}
	d.updateNAV(dur)
	// Misbehavior 2 hook: spoof a MAC ACK on behalf of the addressee.
	if f.Type == FrameData && d.policy.SpoofSniffedData(f) {
		spoof := d.cfg.Frames.Get()
		spoof.Type = FrameACK
		spoof.Src = f.Dst // impersonate the true receiver
		spoof.Dst = f.Src
		spoof.MACBytes = phys.ACKFrameBytes
		spoof.Duration = 0
		d.scheduleResponse(spoof, respSpoofedACK)
	}
}

func (d *DCF) ackFrameFor(dst NodeID) *Frame {
	ack := d.cfg.Frames.Get()
	ack.Type = FrameACK
	ack.Src = d.cfg.ID
	ack.Dst = dst
	ack.MACBytes = phys.ACKFrameBytes
	ack.Duration = ClampNAV(d.policy.OutgoingDuration(FrameACK, ACKNAV()))
	return ack
}

func (d *DCF) handleRTS(f *Frame) {
	// A station answers an RTS only if its virtual carrier sense is idle
	// (IEEE 802.11 §9.2.5.7) — this is how an inflated NAV strangles a
	// co-located normal receiver sharing the sender (Fig 10).
	if d.sched.Now() < d.navUntil || d.busyPhys {
		return
	}
	cts := d.cfg.Frames.Get()
	cts.Type = FrameCTS
	cts.Src = d.cfg.ID
	cts.Dst = f.Src
	cts.MACBytes = phys.CTSFrameBytes
	cts.Duration = ClampNAV(d.policy.OutgoingDuration(FrameCTS, CTSNAVFromRTS(d.cfg.Params, f.Duration)))
	d.scheduleResponse(cts, respCTS)
}

func (d *DCF) handleCTS(f *Frame) {
	if d.access != accessWaitCTS || d.current == nil || f.Src != d.current.Dst {
		return
	}
	if d.respTimer.Pending() {
		// The response slot is occupied; let the CTS timeout drive a retry.
		return
	}
	d.waitTimer.Stop()
	d.shortRetries = 0
	d.scheduleResponse(d.current, respOwnData)
}

func (d *DCF) handleData(f *Frame, info RxInfo) {
	// Always acknowledge, even duplicates (the sender missed our ACK).
	d.scheduleResponse(d.ackFrameFor(f.Src), respACK)
	if last, ok := d.lastSeq[f.Src]; ok && last == f.Seq {
		d.counters.DataDuplicates++
		return
	}
	d.lastSeq[f.Src] = f.Seq
	d.counters.DataDelivered++
	d.upper.DeliverData(f, info.RSSIDBm)
}

func (d *DCF) handleACK(f *Frame, info RxInfo) {
	if d.access != accessWaitACK || d.current == nil {
		return
	}
	if !d.observer.AcceptACK(f, info.RSSIDBm) {
		// GRC mitigation: a suspected spoofed ACK is ignored; the ACK
		// timeout will drive the retransmission the spoofer suppressed.
		d.counters.ACKIgnored++
		return
	}
	if d.cfg.AutoRate != nil {
		// Forged ACKs (spoofed or fake) poison this feedback — that is
		// the auto-rate interaction the paper's Section IX predicts.
		d.cfg.AutoRate.OnTxOutcome(d.current.Dst, true)
	}
	d.waitTimer.Stop()
	d.finishCurrent(true)
}

// --- SIFS responses ------------------------------------------------------

// scheduleResponse arms the single SIFS-response slot. Responses never
// carrier-sense (they own the medium by protocol timing). A station owes at
// most one response at a time; conflicting demands drop the newcomer.
func (d *DCF) scheduleResponse(f *Frame, what respKind) {
	if d.respTimer.Pending() {
		if what != respOwnData {
			// Dropped control responses die here; respOwnData is
			// d.current, still owned by the retry machinery.
			f.Release()
		}
		return
	}
	d.respFrame = f
	d.respWhat = what
	d.respTimer.Start(d.cfg.Params.SIFS)
}

func (d *DCF) onRespond() {
	f := d.respFrame
	what := d.respWhat
	d.respFrame = nil
	d.respWhat = respNone
	if f == nil {
		return
	}
	if d.sched.Now() < d.txUntil {
		// Already transmitting. Control responses are simply dropped (the
		// peer times out); our own post-CTS data frame must not be lost
		// silently or the exchange would hang, so retry it.
		if what == respOwnData {
			d.retryAccess()
		} else {
			f.Release()
		}
		return
	}
	if d.probe != nil {
		d.pe = ProbeEvent{Kind: ProbeTxRespond, Frame: f.Type, Dst: f.Dst, Seq: f.Seq}
		d.emit()
	}
	switch what {
	case respCTS:
		d.counters.CTSSent++
		d.transmit(f, d.cfg.Params.BasicRateBps)
		f.Release()
	case respACK:
		d.counters.ACKSent++
		d.transmit(f, d.cfg.Params.BasicRateBps)
		f.Release()
	case respFakeACK:
		d.counters.FakeACKsSent++
		d.transmit(f, d.cfg.Params.BasicRateBps)
		f.Release()
	case respSpoofedACK:
		d.counters.SpoofedACKsSent++
		d.transmit(f, d.cfg.Params.BasicRateBps)
		f.Release()
	case respOwnData:
		d.startDataTx()
	}
}
