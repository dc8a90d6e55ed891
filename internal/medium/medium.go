// Package medium models the shared wireless channel: every transmission
// reaches the radios in carrier-sense range on the transmitter's channel,
// the medium tracks overlapping receptions, resolves collisions with the
// capture effect, applies independent per-link channel errors, and reports
// physical-carrier-sense transitions to each station's MAC.
//
// Delivery is neighbor-scoped: each radio keeps an interference-graph
// adjacency list (co-channel radios within carrier-sense range, with the
// per-link propagation precomputed), so the event cost of one transmission
// scales with the transmitter's neighbor count, not the total radio
// population. Radios on other channels cost zero events. A world where
// everyone is in range of everyone on one channel — the paper's hotspot —
// has full neighbor sets, so scoped delivery is a strict generalization
// of broadcast-to-all delivery.
//
// Each radio owns two scheduler lanes (sim.Lane) for its transmissions:
// Transmit queues the begin events of one frame in arrival order in the
// radio's begins lane, and each begin queues its end event in the ends
// lane. The fan-out then takes two heap slots rather than two per
// neighbor, and dispatch order is exactly that of scheduling each event
// on its own.
package medium

import (
	"fmt"
	"math"
	"math/rand"

	"greedy80211/internal/mac"
	"greedy80211/internal/metrics"
	"greedy80211/internal/phys"
	"greedy80211/internal/pool"
	"greedy80211/internal/sim"
)

// LinkKey identifies a directed radio link for per-link overrides.
type LinkKey struct {
	From, To mac.NodeID
}

// AddrModel draws whether a corrupted frame's MAC address fields survive.
// Table I of the paper measures that most corrupted frames preserve both
// addresses (98.8%/94.9% on 802.11b, 84%/91.4% on 802.11a), which is what
// makes fake ACKs (misbehavior 3) feasible.
type AddrModel struct {
	// PDstPreserved is the probability the destination address of a
	// corrupted frame is intact.
	PDstPreserved float64
	// PSrcPreservedGivenDst is the probability the source address is also
	// intact, given the destination was.
	PSrcPreservedGivenDst float64
}

// AddrModel80211B returns Table I's 802.11b address-preservation rates.
func AddrModel80211B() AddrModel {
	return AddrModel{PDstPreserved: 0.988, PSrcPreservedGivenDst: 0.949}
}

// AddrModel80211A returns Table I's 802.11a address-preservation rates.
func AddrModel80211A() AddrModel {
	return AddrModel{PDstPreserved: 0.840, PSrcPreservedGivenDst: 0.914}
}

// Draw samples a corruption record for a frame already known corrupted.
func (m AddrModel) Draw(rng *rand.Rand) phys.FrameCorruption {
	return phys.FrameCorruption{
		Corrupted: true,
		DstHit:    rng.Float64() >= m.PDstPreserved,
		SrcHit:    rng.Float64() >= m.PSrcPreservedGivenDst,
	}
}

// Config parameterizes the medium.
type Config struct {
	// Propagation defines ranges and received power.
	Propagation phys.Propagation
	// RSSI generates per-frame signal-strength samples.
	RSSI phys.RSSIModel
	// DefaultError is the channel error model applied to every link
	// without an override; nil means a loss-free channel.
	DefaultError phys.ErrorModel
	// LinkError overrides the error model on specific directed links —
	// the paper injects loss on only one flow in several experiments.
	LinkError map[LinkKey]phys.ErrorModel
	// RateError, when non-nil, takes precedence for frames that carry a
	// transmission rate: loss depends on the PHY rate chosen (auto-rate
	// extension).
	RateError phys.RateErrorModel
	// Addr decides address preservation in corrupted frames; the zero
	// value preserves addresses always.
	Addr AddrModel
	// CaptureEnabled turns on the capture effect.
	CaptureEnabled bool
	// CaptureThresholdDB is the power ratio (dB) the stronger of two
	// overlapping frames needs to be decoded; zero means the ns-2 default
	// of 10 dB.
	CaptureThresholdDB float64
	// ForceCapture resolves every overlap to the strongest frame
	// regardless of ratio. Section IV-B of the paper evaluates spoofed
	// ACKs under the assumption that capture always resolves the
	// two-simultaneous-ACKs case; this switch mirrors that assumption.
	ForceCapture bool
	// Tap observes every transmission and per-receiver outcome when
	// non-nil (tracing, airtime accounting). It must not mutate frames.
	// Further taps can join the fan-out after construction with AddTap.
	Tap Tap
	// Metrics, when non-nil, receives per-station transmit-airtime and
	// channel-occupancy bumps at frame grant time — the always-on
	// telemetry path (no tap required, plain counter arithmetic).
	Metrics *metrics.Registry
}

// Tap receives channel events for tracing and accounting.
type Tap interface {
	// OnTransmit fires when a radio puts a frame on the air.
	OnTransmit(src mac.NodeID, f *mac.Frame, start, airtime sim.Time)
	// OnReceive fires at each radio's reception outcome at time at.
	// Outcomes other than decoded/corrupted (energy only, half-duplex
	// deafness) are not reported.
	OnReceive(dst mac.NodeID, f *mac.Frame, info mac.RxInfo, at sim.Time)
}

// DefaultConfig returns the paper's baseline channel: all nodes in range,
// capture at 10 dB, loss-free.
func DefaultConfig() Config {
	return Config{
		Propagation:        phys.DefaultPropagation(),
		RSSI:               phys.DefaultRSSIModel(),
		CaptureEnabled:     true,
		CaptureThresholdDB: phys.CaptureThresholdDB,
		Addr:               AddrModel{PDstPreserved: 1, PSrcPreservedGivenDst: 1},
	}
}

// arrival is one frame in flight at one receiving radio. Arrivals are
// recycled through the medium's arena and their two events are scheduled
// via AtCall with the package-level dispatchers below, so the hot path
// creates no per-event (or even per-object) closures. While scheduled,
// the arrival holds one reference on its frame.
type arrival struct {
	m              *Medium
	o              *radio
	tx             *radio // transmitter, whose ends lane holds the end event
	frame          *mac.Frame
	from           mac.NodeID
	rssi           float64
	inComm         bool
	start, end     sim.Time
	overlapped     bool
	strongestOther float64
	selfTx         bool
}

func beginArrivalEvent(x any) { a := x.(*arrival); a.m.beginArrival(a.o, a) }
func endArrivalEvent(x any)   { a := x.(*arrival); a.m.endArrival(a.o, a) }

type radio struct {
	id      mac.NodeID
	pos     phys.Position
	channel int
	rcv     mac.Receiver

	inflight []*arrival
	txUntil  sim.Time
	// neighbors is this radio's interference-graph adjacency: co-channel
	// radios within carrier-sense range, in Medium.order order, with the
	// per-link propagation cached (range checks, received power, and delay
	// are pure functions of the pair, and recomputing the path-loss
	// logarithm per arrival was a measurable share of Transmit). Rebuilt
	// lazily whenever the medium's topology generation moves past topoGen
	// (a radio was added or repositioned).
	neighbors []neighbor
	topoGen   uint64
	// begins and ends queue this radio's transmissions at its neighbors:
	// one scheduler heap slot each for the whole fan-out (see sim.Lane).
	begins, ends sim.Lane
}

// neighbor is one interference-graph edge: the destination radio plus the
// cached directed-link propagation toward it.
type neighbor struct {
	o      *radio
	inComm bool
	rxDBm  float64
	delay  sim.Time
	// rank is the edge's position in arrival order: by delay, ties broken
	// by list position.
	rank int
}

// Medium is the shared channel. Not safe for concurrent use; it is driven
// by the single-goroutine simulation scheduler.
type Medium struct {
	sched    *sim.Scheduler
	cfg      Config
	rng      *rand.Rand
	radios   map[mac.NodeID]*radio
	order    []*radio // deterministic iteration order
	taps     []Tap    // fan-out list, seeded from cfg.Tap
	arrivals *pool.Arena[arrival]
	// batch holds one transmission's arrivals, indexed by neighbor rank,
	// between drawing their RSSIs and scheduling them.
	batch []*arrival
	// topoGen counts topology mutations (radio added, position changed);
	// each radio rebuilds its neighbor list lazily when its own topoGen
	// falls behind.
	topoGen uint64
}

var _ mac.Channel = (*Medium)(nil)

// New constructs a medium. The configuration is validated.
func New(sched *sim.Scheduler, cfg Config) (*Medium, error) {
	if sched == nil {
		return nil, fmt.Errorf("medium: nil scheduler")
	}
	if err := cfg.Propagation.Validate(); err != nil {
		return nil, fmt.Errorf("medium: %w", err)
	}
	if cfg.CaptureThresholdDB == 0 {
		cfg.CaptureThresholdDB = phys.CaptureThresholdDB
	}
	if cfg.Addr == (AddrModel{}) {
		cfg.Addr = AddrModel{PDstPreserved: 1, PSrcPreservedGivenDst: 1}
	}
	m := &Medium{
		sched:  sched,
		cfg:    cfg,
		rng:    sched.RNG(),
		radios: make(map[mac.NodeID]*radio),
	}
	m.arrivals = pool.NewArena[arrival](64, func(a *arrival) { a.m = m })
	if cfg.Tap != nil {
		m.taps = append(m.taps, cfg.Tap)
	}
	return m, nil
}

// AddTap appends a tap to the fan-out list. Taps fire in registration
// order (the constructor's Config.Tap first); a flight recorder can join a
// medium that already carries a detector tap. Call it before the
// simulation runs.
func (m *Medium) AddTap(t Tap) {
	if t == nil {
		panic("medium: AddTap with nil tap")
	}
	m.taps = append(m.taps, t)
}

// DefaultChannel is the channel radios join when none is given; every
// single-cell scenario lives on it.
const DefaultChannel = 1

// AddRadio registers a station's radio at a fixed position on the default
// channel.
func (m *Medium) AddRadio(id mac.NodeID, pos phys.Position, rcv mac.Receiver) error {
	return m.AddRadioOn(id, pos, DefaultChannel, rcv)
}

// AddRadioOn registers a station's radio on a specific channel. Radios on
// different channels never interact: a transmission costs zero events at
// off-channel radios. Channel 0 means DefaultChannel.
func (m *Medium) AddRadioOn(id mac.NodeID, pos phys.Position, channel int, rcv mac.Receiver) error {
	if rcv == nil {
		return fmt.Errorf("medium: radio %d has nil receiver", id)
	}
	if channel == 0 {
		channel = DefaultChannel
	}
	if channel < 0 {
		return fmt.Errorf("medium: radio %d on negative channel %d", id, channel)
	}
	if _, dup := m.radios[id]; dup {
		return fmt.Errorf("medium: duplicate radio %d", id)
	}
	r := &radio{id: id, pos: pos, channel: channel, rcv: rcv}
	m.radios[id] = r
	m.order = append(m.order, r)
	m.topoGen++
	return nil
}

// SetPosition moves a registered radio; neighbor sets rebuild lazily on
// the next transmission. Call it between exchanges (e.g. from a mobility
// event), not while the radio has frames in flight — arrivals already
// scheduled keep their old propagation.
func (m *Medium) SetPosition(id mac.NodeID, pos phys.Position) error {
	r, ok := m.radios[id]
	if !ok {
		return fmt.Errorf("medium: SetPosition of unregistered radio %d", id)
	}
	r.pos = pos
	m.topoGen++
	return nil
}

// Position reports a registered radio's location.
func (m *Medium) Position(id mac.NodeID) (phys.Position, bool) {
	r, ok := m.radios[id]
	if !ok {
		return phys.Position{}, false
	}
	return r.pos, true
}

// Channel reports a registered radio's channel.
func (m *Medium) Channel(id mac.NodeID) (int, bool) {
	r, ok := m.radios[id]
	if !ok {
		return 0, false
	}
	return r.channel, true
}

// NeighborCount reports how many co-channel radios sit within id's
// carrier-sense range — the fan-out cost of one of its transmissions.
func (m *Medium) NeighborCount(id mac.NodeID) int {
	r, ok := m.radios[id]
	if !ok {
		return 0
	}
	if r.topoGen != m.topoGen {
		m.buildTopology(r)
	}
	return len(r.neighbors)
}

// MeanRSSDBm reports the mean received power on a directed link, as the
// propagation model computes it. Detection calibration uses this.
func (m *Medium) MeanRSSDBm(from, to mac.NodeID) (float64, bool) {
	a, okA := m.radios[from]
	b, okB := m.radios[to]
	if !okA || !okB {
		return 0, false
	}
	return m.cfg.Propagation.RxPowerDBm(a.pos.DistanceTo(b.pos)), true
}

// SetLinkError installs (or replaces) the error model of one directed
// link, overriding the default. Several experiments inject loss on only
// one flow's links.
func (m *Medium) SetLinkError(from, to mac.NodeID, em phys.ErrorModel) {
	if em == nil {
		panic("medium: SetLinkError with nil model")
	}
	if m.cfg.LinkError == nil {
		m.cfg.LinkError = make(map[LinkKey]phys.ErrorModel)
	}
	m.cfg.LinkError[LinkKey{From: from, To: to}] = em
}

func (m *Medium) errorModelFor(from, to mac.NodeID) phys.ErrorModel {
	if em, ok := m.cfg.LinkError[LinkKey{From: from, To: to}]; ok {
		return em
	}
	if m.cfg.DefaultError != nil {
		return m.cfg.DefaultError
	}
	return phys.NoError{}
}

// Transmit implements mac.Channel: src's frame occupies the air for
// airtime, reaching every co-channel radio within carrier-sense range.
func (m *Medium) Transmit(src mac.NodeID, f *mac.Frame, airtime sim.Time) {
	tx, ok := m.radios[src]
	if !ok {
		panic(fmt.Sprintf("medium: transmit from unregistered radio %d", src))
	}
	if airtime <= 0 {
		panic(fmt.Sprintf("medium: non-positive airtime %v", airtime))
	}
	now := m.sched.Now()
	tx.txUntil = now + airtime
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.RecordTx(src, airtime)
	}
	for _, t := range m.taps {
		t.OnTransmit(src, f, now, airtime)
	}
	// A radio is deaf while transmitting: anything arriving at it is lost.
	for _, a := range tx.inflight {
		a.selfTx = true
	}
	if tx.topoGen != m.topoGen {
		m.buildTopology(tx)
	}
	// RSSI draws follow list order, which fixes the RNG stream; the begin
	// events then go out in arrival order so they fill the transmitter's
	// begins lane. They take consecutive seqs, so (when, seq) dispatch
	// order is what scheduling them in list order would give.
	n := len(tx.neighbors)
	if cap(m.batch) < n {
		m.batch = make([]*arrival, n)
	}
	batch := m.batch[:n]
	for i := range tx.neighbors {
		nb := &tx.neighbors[i]
		batch[nb.rank] = m.newArrival(tx, nb, f, now, airtime)
	}
	for _, a := range batch {
		m.sched.AtCallLane(&tx.begins, a.start, beginArrivalEvent, a)
	}
}

// newArrival prepares one receiver's arrival of f, drawing its RSSI.
func (m *Medium) newArrival(tx *radio, nb *neighbor, f *mac.Frame, now, airtime sim.Time) *arrival {
	a := m.arrivals.Get()
	a.o = nb.o
	a.tx = tx
	a.frame = f
	a.from = tx.id
	a.rssi = m.cfg.RSSI.Sample(m.rng, nb.rxDBm)
	a.inComm = nb.inComm
	a.overlapped = false
	a.strongestOther = math.Inf(-1)
	a.selfTx = false
	f.Retain() // the in-flight copy keeps the frame alive until endArrival
	a.start = now + nb.delay
	a.end = a.start + airtime
	return a
}

// buildTopology rebuilds r's interference-graph edge list: co-channel
// radios within carrier-sense range in registration order, each edge
// carrying the directed-link propagation and its rank in arrival order.
// The list order fixes the order of Transmit's RNG draws, so it is part
// of every output.
func (m *Medium) buildTopology(r *radio) {
	r.topoGen = m.topoGen
	r.neighbors = r.neighbors[:0]
	for _, o := range m.order {
		if o == r || o.channel != r.channel {
			continue
		}
		dist := r.pos.DistanceTo(o.pos)
		if dist > m.cfg.Propagation.CSRange {
			continue
		}
		r.neighbors = append(r.neighbors, neighbor{
			o:      o,
			inComm: dist <= m.cfg.Propagation.CommRange,
			rxDBm:  m.cfg.Propagation.RxPowerDBm(dist),
			delay:  phys.PropagationDelay(dist),
		})
	}
	// Ranking by counting is quadratic in the neighbor count, but it runs
	// once per topology generation and needs no scratch space.
	nbs := r.neighbors
	for i := range nbs {
		rank := 0
		for j := range nbs {
			if nbs[j].delay < nbs[i].delay || (nbs[j].delay == nbs[i].delay && j < i) {
				rank++
			}
		}
		nbs[i].rank = rank
	}
}

func (m *Medium) beginArrival(o *radio, a *arrival) {
	for _, b := range o.inflight {
		b.overlapped = true
		if a.rssi > b.strongestOther {
			b.strongestOther = a.rssi
		}
		a.overlapped = true
		if b.rssi > a.strongestOther {
			a.strongestOther = b.rssi
		}
	}
	if m.sched.Now() < o.txUntil {
		a.selfTx = true
	}
	o.inflight = append(o.inflight, a)
	if len(o.inflight) == 1 {
		o.rcv.ChannelBusy(true)
	}
	m.sched.AtCallLane(&a.tx.ends, a.end, endArrivalEvent, a)
}

func (m *Medium) endArrival(o *radio, a *arrival) {
	for i, b := range o.inflight {
		if b == a {
			o.inflight = append(o.inflight[:i], o.inflight[i+1:]...)
			break
		}
	}
	// Report the carrier-sense transition before delivering the frame so
	// the MAC sees a consistent idle state while handling it.
	if len(o.inflight) == 0 {
		o.rcv.ChannelBusy(false)
	}
	if a.selfTx || !a.inComm {
		m.recycle(a) // deaf or below reception threshold: energy only
		return
	}
	info := mac.RxInfo{Decoded: true, RSSIDBm: a.rssi}
	switch {
	case a.overlapped && !m.captures(a):
		info.Decoded = false
	default:
		units := phys.ErrorUnits(a.frame.MACBytes)
		if m.cfg.RateError != nil && a.frame.TxRate > 0 {
			info.Decoded = !m.cfg.RateError.FrameErrorAtRate(m.rng, a.frame.TxRate, units)
		} else {
			info.Decoded = !m.errorModelFor(a.from, o.id).FrameError(m.rng, units)
		}
	}
	if !info.Decoded {
		info.Corruption = m.cfg.Addr.Draw(m.rng)
	}
	for _, t := range m.taps {
		t.OnReceive(o.id, a.frame, info, m.sched.Now())
	}
	f := a.frame
	// The arrival token is fully consumed; recycle it before RxEnd so
	// follow-on transmissions can reuse it. The frame reference is
	// released only after RxEnd returns — this arrival may hold the last
	// one, and releasing first would hand the MAC a recycled frame.
	a.frame = nil
	a.o = nil
	a.tx = nil
	m.arrivals.Put(a)
	o.rcv.RxEnd(f, info)
	f.Release()
}

// recycle drops the arrival's frame reference and returns it to the
// arena.
func (m *Medium) recycle(a *arrival) {
	a.frame.Release()
	a.frame = nil
	a.o = nil
	a.tx = nil
	m.arrivals.Put(a)
}

// ArrivalStats reports the arrival arena's occupancy.
func (m *Medium) ArrivalStats() pool.Stats { return m.arrivals.Stats() }

func (m *Medium) captures(a *arrival) bool {
	if !m.cfg.CaptureEnabled {
		return false
	}
	if m.cfg.ForceCapture {
		return a.rssi > a.strongestOther
	}
	return phys.Captures(a.rssi, a.strongestOther, m.cfg.CaptureThresholdDB)
}
