// Package trace is the simulator's flight recorder: it captures
// channel-level activity (from a medium tap) and MAC-internal
// state-machine events (from a DCF probe) into one timestamped,
// deterministic stream. A bounded ring keeps the most recent events for
// post-mortem dumps, exporters render the stream as JSONL, Chrome
// trace-event JSON (Perfetto-viewable), or an ASCII per-station timeline,
// and a trace-driven checker verifies the 802.11 access invariants. It is
// how a user inspects *why* a greedy receiver wins — the log shows the
// silenced stations, the forged ACKs, and the airtime the attacker's flow
// occupies.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"greedy80211/internal/mac"
	"greedy80211/internal/medium"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// Kind labels one recorded event. The first three kinds are channel-level
// (from the medium tap); the rest mirror mac.ProbeKind (MAC-internal).
type Kind int

const (
	// KindTransmit is a frame entering the air.
	KindTransmit Kind = iota + 1
	// KindDecode is a successful reception.
	KindDecode
	// KindCorrupt is a corrupted reception.
	KindCorrupt
	// KindNAVUpdate through KindMSDUDone are MAC-internal events; see the
	// mac.ProbeKind documentation for their semantics.
	KindNAVUpdate
	KindNAVExpire
	KindNAVBlockedStart
	KindNAVBlockedEnd
	KindBusyStart
	KindBusyEnd
	KindBackoffDraw
	KindBackoffResume
	KindBackoffFreeze
	KindBackoffExpire
	KindCWDouble
	KindCWReset
	KindIFSDefer
	KindRetry
	KindEnqueue
	KindQueueDrop
	KindTxContend
	KindTxRespond
	KindMSDUDone
)

// kindNames is the stable wire encoding; JSONL files carry these strings.
var kindNames = map[Kind]string{
	KindTransmit:        "TX",
	KindDecode:          "RX",
	KindCorrupt:         "ERR",
	KindNAVUpdate:       "NAV-SET",
	KindNAVExpire:       "NAV-EXP",
	KindNAVBlockedStart: "NAVBLK-BEG",
	KindNAVBlockedEnd:   "NAVBLK-END",
	KindBusyStart:       "BUSY-BEG",
	KindBusyEnd:         "BUSY-END",
	KindBackoffDraw:     "BO-DRAW",
	KindBackoffResume:   "BO-RESUME",
	KindBackoffFreeze:   "BO-FREEZE",
	KindBackoffExpire:   "BO-EXPIRE",
	KindCWDouble:        "CW-DOUBLE",
	KindCWReset:         "CW-RESET",
	KindIFSDefer:        "IFS-DEFER",
	KindRetry:           "RETRY",
	KindEnqueue:         "ENQ",
	KindQueueDrop:       "Q-DROP",
	KindTxContend:       "TX-CONTEND",
	KindTxRespond:       "TX-RESPOND",
	KindMSDUDone:        "MSDU-DONE",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// probeKindToKind maps the mac-package enumeration onto the trace one.
// The hot path reads the derived dense table probeKindLUT; the map stays
// as the readable source of truth.
var probeKindToKind = map[mac.ProbeKind]Kind{
	mac.ProbeNAVUpdate:       KindNAVUpdate,
	mac.ProbeNAVExpire:       KindNAVExpire,
	mac.ProbeNAVBlockedStart: KindNAVBlockedStart,
	mac.ProbeNAVBlockedEnd:   KindNAVBlockedEnd,
	mac.ProbeBusyStart:       KindBusyStart,
	mac.ProbeBusyEnd:         KindBusyEnd,
	mac.ProbeBackoffDraw:     KindBackoffDraw,
	mac.ProbeBackoffResume:   KindBackoffResume,
	mac.ProbeBackoffFreeze:   KindBackoffFreeze,
	mac.ProbeBackoffExpire:   KindBackoffExpire,
	mac.ProbeCWDouble:        KindCWDouble,
	mac.ProbeCWReset:         KindCWReset,
	mac.ProbeIFSDefer:        KindIFSDefer,
	mac.ProbeRetry:           KindRetry,
	mac.ProbeEnqueue:         KindEnqueue,
	mac.ProbeQueueDrop:       KindQueueDrop,
	mac.ProbeTxContend:       KindTxContend,
	mac.ProbeTxRespond:       KindTxRespond,
	mac.ProbeMSDUDone:        KindMSDUDone,
}

// probeKindLUT is probeKindToKind as a dense array: a map lookup per MAC
// probe event was measurable in traced-run profiles.
var probeKindLUT = func() [32]Kind {
	var lut [32]Kind
	for pk, k := range probeKindToKind {
		lut[pk] = k
	}
	return lut
}()

// Event is one recorded event: channel-level (Frame and RSSIDBm populated)
// or MAC-internal (the probe detail fields populated).
type Event struct {
	Kind    Kind
	At      sim.Time
	Station mac.NodeID // transmitter (TX), receiver (RX/ERR), or probe owner
	Frame   FrameInfo
	RSSIDBm float64 // receptions only

	// MAC-internal detail, mirroring mac.ProbeEvent.
	Until    sim.Time
	CW       int
	Slots    int
	Retries  int
	QueueLen int
	EIFS     bool
	Long     bool
	OK       bool
}

// FrameInfo is the frame summary captured by the recorder (frames are
// mutable and reused upstream, so the recorder copies what it needs).
type FrameInfo struct {
	Type     mac.FrameType
	Src, Dst mac.NodeID
	Seq      uint16
	Bytes    int
	Retry    bool
	Duration sim.Time // the NAV value the frame carries
	Airtime  sim.Time // TX events only
}

// String renders an event as one trace line. Retransmissions carry a
// "retry" marker and every frame's NAV duration is shown, so inflated-NAV
// frames stand out in rendered logs.
func (e Event) String() string {
	switch e.Kind {
	case KindTransmit:
		return fmt.Sprintf("%12v %-3s sta=%d %s%s %d->%d seq=%d len=%dB dur=%v air=%v",
			e.At, e.Kind, e.Station, e.Frame.Type, retryMark(e.Frame.Retry),
			e.Frame.Src, e.Frame.Dst, e.Frame.Seq, e.Frame.Bytes,
			e.Frame.Duration, e.Frame.Airtime)
	case KindDecode, KindCorrupt:
		return fmt.Sprintf("%12v %-3s sta=%d %s%s %d->%d seq=%d dur=%v rssi=%.1fdBm",
			e.At, e.Kind, e.Station, e.Frame.Type, retryMark(e.Frame.Retry),
			e.Frame.Src, e.Frame.Dst, e.Frame.Seq, e.Frame.Duration, e.RSSIDBm)
	case KindNAVUpdate, KindNAVExpire, KindNAVBlockedStart:
		return fmt.Sprintf("%12v %-10s sta=%d until=%v", e.At, e.Kind, e.Station, e.Until)
	case KindIFSDefer:
		ifs := "DIFS"
		if e.EIFS {
			ifs = "EIFS"
		}
		return fmt.Sprintf("%12v %-10s sta=%d until=%v reason=%s", e.At, e.Kind, e.Station, e.Until, ifs)
	case KindBackoffDraw:
		return fmt.Sprintf("%12v %-10s sta=%d cw=%d slots=%d", e.At, e.Kind, e.Station, e.CW, e.Slots)
	case KindBackoffResume, KindBackoffFreeze:
		return fmt.Sprintf("%12v %-10s sta=%d slots=%d", e.At, e.Kind, e.Station, e.Slots)
	case KindCWDouble, KindCWReset:
		return fmt.Sprintf("%12v %-10s sta=%d cw=%d", e.At, e.Kind, e.Station, e.CW)
	case KindRetry:
		counter := "short"
		if e.Long {
			counter = "long"
		}
		return fmt.Sprintf("%12v %-10s sta=%d %s=%d dst=%d seq=%d",
			e.At, e.Kind, e.Station, counter, e.Retries, e.Frame.Dst, e.Frame.Seq)
	case KindEnqueue, KindQueueDrop:
		return fmt.Sprintf("%12v %-10s sta=%d qlen=%d dst=%d", e.At, e.Kind, e.Station, e.QueueLen, e.Frame.Dst)
	case KindTxContend, KindTxRespond:
		return fmt.Sprintf("%12v %-10s sta=%d %s dst=%d seq=%d",
			e.At, e.Kind, e.Station, e.Frame.Type, e.Frame.Dst, e.Frame.Seq)
	case KindMSDUDone:
		outcome := "dropped"
		if e.OK {
			outcome = "ok"
		}
		return fmt.Sprintf("%12v %-10s sta=%d %s dst=%d seq=%d",
			e.At, e.Kind, e.Station, outcome, e.Frame.Dst, e.Frame.Seq)
	default:
		return fmt.Sprintf("%12v %-10s sta=%d", e.At, e.Kind, e.Station)
	}
}

func retryMark(retry bool) string {
	if retry {
		return "(retry)"
	}
	return ""
}

// Recorder implements medium.Tap and mac.Probe: it keeps the most recent
// events in one bounded ring (flight-recorder semantics) and accumulates
// channel statistics for the whole run. It has no dependency on a
// scheduler, so it can be built before the world it taps. Not safe for
// concurrent use; attach one recorder per world.
//
// The ring holds the newest cap events in record order: slots fill in
// place, and once the ring is full the canonical stream starts at the
// oldest slot, next, and wraps round to next-1. Readers walk those two
// segments in place.
type Recorder struct {
	cap  int
	ring []Event // allocated at cap on the first event, then wraps
	next int     // oldest slot once len(ring) == cap

	total uint64 // count of events ever recorded
	// checker, set by the Collector that started this recorder, sees
	// every event in record order regardless of ring evictions, and the
	// world's band timing as soon as the recorder is attached.
	checker *Checker

	names  map[mac.NodeID]string
	timing Timing

	acc statsAccum
}

var (
	_ medium.Tap = (*Recorder)(nil)
	_ mac.Probe  = (*Recorder)(nil)
)

// Stats aggregates whole-run channel accounting. The maps are
// materialized on each Stats call from dense internal counters (maps in
// the per-transmit path cost a hash per frame); treat a returned Stats
// as a snapshot.
type Stats struct {
	// Transmissions and airtime per frame type.
	TxCount   map[mac.FrameType]int64
	TxAirtime map[mac.FrameType]sim.Time
	// AirtimePerStation attributes transmit airtime to each transmitter.
	AirtimePerStation map[mac.NodeID]sim.Time
	// Decoded and Corrupted count per-receiver outcomes.
	Decoded   int64
	Corrupted int64
	// MACEvents counts MAC-internal probe events.
	MACEvents int64
	// BusyAirtime is total transmit airtime (overlaps double-count —
	// with a single collision domain it approximates channel occupancy).
	BusyAirtime sim.Time
}

// frameTypeSlots sizes the dense per-type counters: FrameType values are
// 1..4, slot 0 is unused. Out-of-range types (hand-built test frames)
// fall back to overflow maps.
const frameTypeSlots = 5

// statsAccum is the dense accumulation behind Stats: arrays indexed by
// frame type and station id instead of maps, so the per-transmit cost is
// two array adds rather than three map operations.
type statsAccum struct {
	txCount    [frameTypeSlots]int64
	txAirtime  [frameTypeSlots]sim.Time
	staAirtime []sim.Time // indexed by transmitter id, grown on demand

	// Overflow for out-of-band keys (never touched by simulator traffic).
	txCountOther   map[mac.FrameType]int64
	txAirtimeOther map[mac.FrameType]sim.Time
	staOther       map[mac.NodeID]sim.Time

	decoded, corrupted, macEvents int64
	busy                          sim.Time
}

// NewRecorder builds a recorder keeping the last capacity events
// (default 4096). The ring is allocated on the first recorded event, so
// a recorder that never records costs nothing.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Recorder{cap: capacity}
}

// SetStationName registers a human-readable name used by the exporters.
func (r *Recorder) SetStationName(id mac.NodeID, name string) {
	if r.names == nil {
		r.names = make(map[mac.NodeID]string)
	}
	r.names[id] = name
}

// SetParams records the band timing the traced world runs under;
// scenario.World.AttachTrace calls it.
func (r *Recorder) SetParams(p phys.Params) {
	r.timing = TimingFromParams(p)
	if r.checker != nil {
		r.checker.SetTiming(r.timing)
	}
}

// Timing reports the band timing captured at attach time (zero if the
// recorder was fed by hand).
func (r *Recorder) Timing() Timing { return r.timing }

// Total reports how many events were recorded over the run, including
// those the ring has since evicted.
func (r *Recorder) Total() uint64 { return r.total }

// Dropped reports how many events fell outside the retained window.
func (r *Recorder) Dropped() uint64 {
	if r.total <= uint64(r.cap) {
		return 0
	}
	return r.total - uint64(r.cap)
}

// slot reserves the next ring slot and returns the Event to fill in
// place — callers write the record directly into the ring (one struct
// store) instead of building it on the stack and copying. The caller must
// overwrite every field.
func (r *Recorder) slot() *Event {
	r.total++
	if n := len(r.ring); n < r.cap {
		if r.ring == nil {
			// Reserve full capacity up front: append-doubling on the
			// record path generated most of the traced-run garbage.
			r.ring = make([]Event, 0, r.cap)
		}
		// Reslice rather than append a zero value: the backing array is
		// already zeroed and the caller overwrites the whole Event, so a
		// zero-struct store here would double the ring write traffic.
		r.ring = r.ring[:n+1]
		return &r.ring[n]
	}
	ev := &r.ring[r.next]
	if r.next++; r.next == r.cap {
		r.next = 0
	}
	return ev
}

// OnTransmit implements medium.Tap.
//
// The recording sites below assign every Event field through the slot
// pointer instead of storing a composite literal: the literal forces a
// stack temporary plus a 144-byte copy per event, which dominated the
// tracing-on overhead. Each site MUST write all fields — ring slots are
// reused after wrap, and a skipped field would leak a stale value into
// exports (TestShardWrapClearsStaleFields guards this).
func (r *Recorder) OnTransmit(src mac.NodeID, f *mac.Frame, start, airtime sim.Time) {
	ev := r.slot()
	ev.Kind = KindTransmit
	ev.At = start
	ev.Station = src
	ev.Frame.Type = f.Type
	ev.Frame.Src = f.Src
	ev.Frame.Dst = f.Dst
	ev.Frame.Seq = f.Seq
	ev.Frame.Bytes = f.MACBytes
	ev.Frame.Retry = f.Retry
	ev.Frame.Duration = f.Duration
	ev.Frame.Airtime = airtime
	ev.RSSIDBm = 0
	ev.Until = 0
	ev.CW = 0
	ev.Slots = 0
	ev.Retries = 0
	ev.QueueLen = 0
	ev.EIFS = false
	ev.Long = false
	ev.OK = false
	if r.checker != nil {
		r.checker.Feed(ev)
	}
	if t := int(f.Type); t >= 1 && t < frameTypeSlots {
		r.acc.txCount[t]++
		r.acc.txAirtime[t] += airtime
	} else {
		if r.acc.txCountOther == nil {
			r.acc.txCountOther = make(map[mac.FrameType]int64)
			r.acc.txAirtimeOther = make(map[mac.FrameType]sim.Time)
		}
		r.acc.txCountOther[f.Type]++
		r.acc.txAirtimeOther[f.Type] += airtime
	}
	if i := int(src); i >= 0 {
		if i >= len(r.acc.staAirtime) {
			grown := make([]sim.Time, i+1)
			copy(grown, r.acc.staAirtime)
			r.acc.staAirtime = grown
		}
		r.acc.staAirtime[i] += airtime
	} else {
		if r.acc.staOther == nil {
			r.acc.staOther = make(map[mac.NodeID]sim.Time)
		}
		r.acc.staOther[src] += airtime
	}
	r.acc.busy += airtime
}

// OnReceive implements medium.Tap.
func (r *Recorder) OnReceive(dst mac.NodeID, f *mac.Frame, info mac.RxInfo, at sim.Time) {
	kind := KindDecode
	if info.Decoded {
		r.acc.decoded++
	} else {
		kind = KindCorrupt
		r.acc.corrupted++
	}
	ev := r.slot()
	ev.Kind = kind
	ev.At = at
	ev.Station = dst
	ev.Frame.Type = f.Type
	ev.Frame.Src = f.Src
	ev.Frame.Dst = f.Dst
	ev.Frame.Seq = f.Seq
	ev.Frame.Bytes = f.MACBytes
	ev.Frame.Retry = f.Retry
	ev.Frame.Duration = f.Duration
	ev.Frame.Airtime = 0
	ev.RSSIDBm = info.RSSIDBm
	ev.Until = 0
	ev.CW = 0
	ev.Slots = 0
	ev.Retries = 0
	ev.QueueLen = 0
	ev.EIFS = false
	ev.Long = false
	ev.OK = false
	if r.checker != nil {
		r.checker.Feed(ev)
	}
}

// OnMACEvent implements mac.Probe: the MAC-internal stream lands in the
// same ring, interleaved with channel events in scheduler order. The
// pointee is the DCF's scratch event, valid only for this call — every
// field is copied into the ring slot before returning.
func (r *Recorder) OnMACEvent(pe *mac.ProbeEvent) {
	r.acc.macEvents++
	var kind Kind
	if i := int(pe.Kind); i >= 0 && i < len(probeKindLUT) {
		kind = probeKindLUT[i]
	}
	ev := r.slot()
	ev.Kind = kind
	ev.At = pe.At
	ev.Station = pe.Station
	ev.Frame.Type = pe.Frame
	ev.Frame.Src = 0
	ev.Frame.Dst = pe.Dst
	ev.Frame.Seq = pe.Seq
	ev.Frame.Bytes = 0
	ev.Frame.Retry = false
	ev.Frame.Duration = 0
	ev.Frame.Airtime = 0
	ev.RSSIDBm = 0
	ev.Until = pe.Until
	ev.CW = pe.CW
	ev.Slots = pe.Slots
	ev.Retries = pe.Retries
	ev.QueueLen = pe.QueueLen
	ev.EIFS = pe.EIFS
	ev.Long = pe.Long
	ev.OK = pe.OK
	if r.checker != nil {
		r.checker.Feed(ev)
	}
}

// Stats reports the accumulated accounting as a fresh snapshot.
func (r *Recorder) Stats() Stats {
	st := Stats{
		TxCount:           make(map[mac.FrameType]int64),
		TxAirtime:         make(map[mac.FrameType]sim.Time),
		AirtimePerStation: make(map[mac.NodeID]sim.Time),
		Decoded:           r.acc.decoded,
		Corrupted:         r.acc.corrupted,
		MACEvents:         r.acc.macEvents,
		BusyAirtime:       r.acc.busy,
	}
	for t := 1; t < frameTypeSlots; t++ {
		if r.acc.txCount[t] != 0 {
			st.TxCount[mac.FrameType(t)] = r.acc.txCount[t]
			st.TxAirtime[mac.FrameType(t)] = r.acc.txAirtime[t]
		}
	}
	for k, v := range r.acc.txCountOther {
		st.TxCount[k] = v
		st.TxAirtime[k] = r.acc.txAirtimeOther[k]
	}
	for i, air := range r.acc.staAirtime {
		if air != 0 {
			st.AirtimePerStation[mac.NodeID(i)] = air
		}
	}
	for k, v := range r.acc.staOther {
		st.AirtimePerStation[k] = v
	}
	return st
}

// segments returns the retained events as the ring's two runs, oldest
// first: older then newer. Before the ring wraps, newer is empty.
func (r *Recorder) segments() (older, newer []Event) {
	return r.ring[r.next:], r.ring[:r.next]
}

// Events returns a copy of the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if len(r.ring) == 0 {
		return nil
	}
	older, newer := r.segments()
	return append(append(make([]Event, 0, len(r.ring)), older...), newer...)
}

// Utilization reports transmit airtime as a fraction of elapsed time
// (overlapping transmissions double-count, so values may exceed 1 under
// heavy collisions).
func (r *Recorder) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.acc.busy) / float64(elapsed)
}

// Summary renders the accounting as text.
func (r *Recorder) Summary(elapsed sim.Time) string {
	st := r.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "channel utilization: %.1f%% over %v\n",
		100*r.Utilization(elapsed), elapsed)
	for _, ft := range []mac.FrameType{mac.FrameRTS, mac.FrameCTS, mac.FrameData, mac.FrameACK} {
		if n := st.TxCount[ft]; n > 0 {
			fmt.Fprintf(&b, "  %-4s %7d frames  %v airtime\n", ft, n, st.TxAirtime[ft])
		}
	}
	fmt.Fprintf(&b, "  receptions: %d decoded, %d corrupted\n",
		st.Decoded, st.Corrupted)
	stations := make([]mac.NodeID, 0, len(st.AirtimePerStation))
	for sta := range st.AirtimePerStation {
		stations = append(stations, sta)
	}
	sort.Slice(stations, func(i, j int) bool { return stations[i] < stations[j] })
	for _, sta := range stations {
		air := st.AirtimePerStation[sta]
		fmt.Fprintf(&b, "  station %d: %v airtime (%.1f%%)\n",
			sta, air, 100*float64(air)/float64(elapsed))
	}
	return b.String()
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
