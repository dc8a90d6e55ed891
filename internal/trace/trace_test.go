package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

func txFrame(seq uint16) *mac.Frame {
	return &mac.Frame{
		Type: mac.FrameData, Src: 1, Dst: 2, Seq: seq,
		MACBytes: 1052, Duration: 314 * sim.Microsecond,
	}
}

func TestKindString(t *testing.T) {
	if KindTransmit.String() != "TX" || KindDecode.String() != "RX" || KindCorrupt.String() != "ERR" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind name wrong")
	}
}

func TestRecorderAccounting(t *testing.T) {
	r := NewRecorder(16)
	f := txFrame(1)
	r.OnTransmit(1, f, 0, 958*sim.Microsecond)
	r.OnReceive(2, f, mac.RxInfo{Decoded: true, RSSIDBm: -50}, 958*sim.Microsecond)
	ack := &mac.Frame{Type: mac.FrameACK, Src: 2, Dst: 1, MACBytes: 14}
	r.OnTransmit(2, ack, 968*sim.Microsecond, 304*sim.Microsecond)
	r.OnReceive(1, ack, mac.RxInfo{Decoded: false, RSSIDBm: -60}, 1272*sim.Microsecond)

	st := r.Stats()
	if st.TxCount[mac.FrameData] != 1 || st.TxCount[mac.FrameACK] != 1 {
		t.Errorf("tx counts = %v", st.TxCount)
	}
	if st.Decoded != 1 || st.Corrupted != 1 {
		t.Errorf("rx outcomes = %d/%d", st.Decoded, st.Corrupted)
	}
	if st.BusyAirtime != 1262*sim.Microsecond {
		t.Errorf("busy airtime = %v", st.BusyAirtime)
	}
	if st.AirtimePerStation[1] != 958*sim.Microsecond {
		t.Errorf("station 1 airtime = %v", st.AirtimePerStation[1])
	}
	if got := r.Utilization(10 * sim.Millisecond); got < 0.12 || got > 0.13 {
		t.Errorf("utilization = %v, want ≈0.126", got)
	}
	if r.Utilization(0) != 0 {
		t.Error("zero-elapsed utilization nonzero")
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.OnTransmit(1, txFrame(uint16(i)), sim.Time(i)*sim.Millisecond, sim.Microsecond)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first: seqs 6,7,8,9.
	for i, e := range evs {
		if e.Frame.Seq != uint16(6+i) {
			t.Errorf("event %d seq = %d, want %d", i, e.Frame.Seq, 6+i)
		}
	}
}

func TestRecorderPartialRing(t *testing.T) {
	r := NewRecorder(100)
	r.OnTransmit(1, txFrame(7), 0, sim.Microsecond)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Frame.Seq != 7 {
		t.Fatalf("events = %v", evs)
	}
}

func TestSummaryAndDump(t *testing.T) {
	r := NewRecorder(8)
	f := txFrame(3)
	r.OnTransmit(1, f, 0, 958*sim.Microsecond)
	r.OnReceive(2, f, mac.RxInfo{Decoded: true, RSSIDBm: -48.2}, sim.Millisecond)

	sum := r.Summary(sim.Second)
	for _, want := range []string{"channel utilization", "DATA", "1 decoded", "station 1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	dump := r.Dump()
	if !strings.Contains(dump, "TX") || !strings.Contains(dump, "RX") ||
		!strings.Contains(dump, "seq=3") {
		t.Errorf("dump missing content:\n%s", dump)
	}
}

func TestNewRecorderDefaults(t *testing.T) {
	r := NewRecorder(0)
	if r.cap != 4096 {
		t.Errorf("default capacity = %d", r.cap)
	}
}

// TestShardWrapClearsStaleFields guards the field-by-field recording
// discipline: ring slots are reused after wrap, and the recording sites
// overwrite every Event field rather than storing a composite literal. A
// site that skips a field would leak a stale value from the slot's
// previous occupant into exports. The test dirties every ring slot with
// events that set every field group nonzero, then records a minimal
// event through each site and checks it is identical to the same event
// recorded by a fresh recorder.
func TestShardWrapClearsStaleFields(t *testing.T) {
	const ringCap = 4
	loud := &mac.ProbeEvent{
		Kind: mac.ProbeIFSDefer, At: sim.Second, Station: 1,
		Until: 2 * sim.Second, CW: 31, Slots: 9, Retries: 3, QueueLen: 7,
		EIFS: true, Long: true, OK: true,
		Frame: mac.FrameData, Dst: 2, Seq: 99,
	}
	loudFrame := &mac.Frame{Type: mac.FrameRTS, Src: 1, Dst: 2, Seq: 77,
		MACBytes: 20, Retry: true, Duration: sim.Millisecond}
	dirty := NewRecorder(ringCap)
	for i := 0; i < 3*ringCap; i++ {
		dirty.OnMACEvent(loud)
		dirty.OnTransmit(1, loudFrame, sim.Time(i)*sim.Millisecond, 211*sim.Microsecond)
		dirty.OnReceive(1, loudFrame, mac.RxInfo{Decoded: false, RSSIDBm: -31.5},
			sim.Time(i)*sim.Millisecond)
	}
	sites := []struct {
		name   string
		record func(r *Recorder)
	}{
		{"transmit", func(r *Recorder) { r.OnTransmit(1, &mac.Frame{}, 0, 0) }},
		{"receive", func(r *Recorder) { r.OnReceive(1, &mac.Frame{}, mac.RxInfo{}, 0) }},
		{"mac", func(r *Recorder) { r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeBackoffExpire, Station: 1}) }},
	}
	for _, site := range sites {
		site.record(dirty)
		fresh := NewRecorder(ringCap)
		site.record(fresh)
		got := dirty.Events()
		want := fresh.Events()
		if got[len(got)-1] != want[len(want)-1] {
			t.Errorf("%s after wrap leaked stale fields:\ngot  %+v\nwant %+v",
				site.name, got[len(got)-1], want[len(want)-1])
		}
	}
}

// TestShardedRetentionMatchesGlobalWindow checks the flight-recorder
// contract: the ring's export equals exactly the newest-cap window of the
// record stream. A seeded table drives random station sequences (stations
// recording at very different rates, negative ids included) through every
// recording site, with totals below, at and far past the capacity. The
// ring is also read out at random points mid-stream, through both
// Events() and the in-place walk behind Recordings(), and recording then
// carries on: a read-out must neither disturb the ring nor depend on
// where its wrap point lies.
func TestShardedRetentionMatchesGlobalWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ringCap := range []int{1, 2, 7, 64} {
		for _, total := range []int{ringCap - 1, ringCap, ringCap + 1, 3*ringCap + 5, 40*ringCap + 3} {
			for _, nSta := range []int{1, 3, 20} {
				name := fmt.Sprintf("cap%d/total%d/stations%d", ringCap, total, nSta)
				t.Run(name, func(t *testing.T) {
					checkRetention(t, rng, ringCap, total, nSta)
				})
			}
		}
	}
}

func checkRetention(t *testing.T, rng *rand.Rand, ringCap, total, nSta int) {
	ring := NewRecorder(ringCap)
	reference := NewRecorder(total + 1) // never wraps: retains everything
	readAt := rand.New(rand.NewSource(int64(ringCap*1000 + total)))
	for n := 1; n <= total; n++ {
		sta := mac.NodeID(rng.Intn(nSta+2) - 2) // ids -2..nSta-1
		at := sim.Time(n) * sim.Microsecond
		f := &mac.Frame{Type: mac.FrameData, Src: sta, Dst: 2, Seq: uint16(n)}
		for _, r := range []*Recorder{ring, reference} {
			switch n % 3 {
			case 0:
				r.OnTransmit(sta, f, at, sim.Microsecond)
			case 1:
				r.OnReceive(sta, f, mac.RxInfo{Decoded: true, RSSIDBm: -float64(n)}, at)
			default:
				r.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeBackoffDraw, At: at, Station: sta,
					CW: 31, Slots: n})
			}
		}
		if readAt.Intn(ringCap+2) == 0 {
			checkReadOut(t, ring, reference, ringCap)
		}
	}
	checkReadOut(t, ring, reference, ringCap)
	wantDropped := uint64(0)
	if total > ringCap {
		wantDropped = uint64(total - ringCap)
	}
	if d := ring.Dropped(); d != wantDropped {
		t.Errorf("Dropped() = %d, want %d", d, wantDropped)
	}
}

// checkReadOut compares the ring's retained window with the newest
// ringCap events of the never-wrapping reference, through Events() and
// through the stream compare that orders Recordings().
func checkReadOut(t *testing.T, ring, reference *Recorder, ringCap int) {
	t.Helper()
	want := reference.Events()
	if len(want) > ringCap {
		want = want[len(want)-ringCap:]
	}
	got := ring.Events()
	if len(got) != len(want) {
		t.Fatalf("after %d events: retained %d events, want %d", ring.Total(), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after %d events: event %d = %+v, want %+v", ring.Total(), i, got[i], want[i])
		}
	}
	// The same window laid out unwrapped must tie with the ring from
	// either side, so the stable sort keeps Start order; a window whose
	// newest event is later must sort after it.
	flat := &Recorder{cap: ringCap, ring: want}
	c := &Collector{recs: []*Recording{{Seed: 1, Recorder: ring}, {Seed: 1, Recorder: flat}}}
	if recs := c.Recordings(); recs[0].Recorder != ring || recs[1].Recorder != flat {
		t.Fatalf("after %d events: identical streams reordered", ring.Total())
	}
	if a, b := compareStreams(ring, flat), compareStreams(flat, ring); a != 0 || b != 0 {
		t.Fatalf("after %d events: identical streams compare %d / %d", ring.Total(), a, b)
	}
	if len(want) > 0 {
		later := append([]Event(nil), want...)
		later[len(later)-1].At++
		if c := compareStreams(ring, &Recorder{ring: later}); c >= 0 {
			t.Fatalf("after %d events: stream with a later last event compares %d, want < 0", ring.Total(), c)
		}
	}
}

// TestFullRingRecordsWithoutAllocs: once the ring is full and the
// checker has seen every station, recording through all three sites with
// the collector's checker attached allocates nothing per event. Each round is a compliant
// DATA/ACK exchange, so both SIFS and contention checks run and pass.
func TestFullRingRecordsWithoutAllocs(t *testing.T) {
	const ringCap = 64
	c := NewCollector(ringCap)
	r := c.Start(1)
	r.SetParams(phys.Params80211B())
	sifs := r.Timing().SIFS
	data := txFrame(1)
	ack := &mac.Frame{Type: mac.FrameACK, Src: 2, Dst: 1, MACBytes: 14}
	contend := &mac.ProbeEvent{Kind: mac.ProbeTxContend, Station: 1, Frame: mac.FrameData, Dst: 2}
	respond := &mac.ProbeEvent{Kind: mac.ProbeTxRespond, Station: 2, Frame: mac.FrameACK, Dst: 1}
	var at sim.Time
	exchange := func() {
		at += 2 * sim.Millisecond
		dataEnd := at + 958*sim.Microsecond
		contend.At = at
		r.OnMACEvent(contend)
		r.OnTransmit(1, data, at, 958*sim.Microsecond)
		r.OnReceive(2, data, mac.RxInfo{Decoded: true, RSSIDBm: -50}, dataEnd)
		respond.At = dataEnd + sifs
		r.OnMACEvent(respond)
		r.OnTransmit(2, ack, dataEnd+sifs, 304*sim.Microsecond)
		r.OnReceive(1, ack, mac.RxInfo{Decoded: true, RSSIDBm: -50}, dataEnd+sifs+304*sim.Microsecond)
	}
	for range ringCap {
		exchange()
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Errorf("full-ring recording allocates %.1f times per 6-event exchange, want 0", allocs)
	}
	if err := Check(c.Recordings()); err != nil {
		t.Errorf("%v: %v", err, err.(*ViolationError).Violations)
	}
}

// BenchmarkCollectorRecordings measures the canonical read-out: sorting
// recordings that share a seed by walking their rings in place. Each
// seed has four 20-station streams that wrap their rings three times
// over; two are identical (a full-depth tie) and two share a prefix with
// them and diverge inside the retained window.
func BenchmarkCollectorRecordings(b *testing.B) {
	const (
		ringCap  = 4096
		stations = 20
		total    = 3 * ringCap
	)
	c := NewCollector(ringCap)
	for seed := int64(1); seed <= 4; seed++ {
		for _, divergeAt := range []int{total, total, total - ringCap/2, total - ringCap/10} {
			recordStream(c.Start(seed), seed, divergeAt, total, stations)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Recordings()) != 16 {
			b.Fatal("lost a recording")
		}
	}
}

// recordStream feeds rec total events across the given number of
// stations, drawn from a generator seeded by seed and reseeded at event
// divergeAt.
func recordStream(rec *Recorder, seed int64, divergeAt, total, stations int) {
	rng := rand.New(rand.NewSource(seed))
	var at sim.Time
	for n := 0; n < total; n++ {
		if n == divergeAt {
			rng = rand.New(rand.NewSource(seed + 1000))
		}
		at += sim.Time(rng.Intn(3)) * sim.Microsecond
		sta := mac.NodeID(rng.Intn(stations))
		f := &mac.Frame{Type: mac.FrameData, Src: sta, Dst: 0, Seq: uint16(n), MACBytes: 1052}
		switch rng.Intn(3) {
		case 0:
			rec.OnTransmit(sta, f, at, 958*sim.Microsecond)
		case 1:
			rec.OnReceive(sta, f, mac.RxInfo{Decoded: true, RSSIDBm: -40 - 50*rng.Float64()}, at)
		default:
			rec.OnMACEvent(&mac.ProbeEvent{Kind: mac.ProbeBackoffDraw, At: at, Station: sta,
				CW: 31, Slots: rng.Intn(32)})
		}
	}
}
