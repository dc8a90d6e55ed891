package scenario

import (
	"math/rand"
	"testing"

	"greedy80211/internal/analytic"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
	"greedy80211/internal/transport"
)

// TestWorldInvariantsUnderFuzz builds randomized worlds — random band,
// transport, loss, topology, and misbehavior mix — and asserts the global
// invariants that must hold regardless of configuration:
//
//  1. conservation: a receiver never delivers more unique packets than
//     its sender emitted;
//  2. MAC accounting: enqueued = success + retry-drop + queue-drop +
//     still-queued (+ the one in service);
//  3. duplicates are never delivered to agents (unique counting);
//  4. contention windows sampled stay within [CWmin, CWmax];
//  5. the channel tap's decode count never exceeds transmissions × radios.
func TestWorldInvariantsUnderFuzz(t *testing.T) {
	for i := 0; i < 25; i++ {
		seed := int64(1000 + i*17)
		rng := rand.New(rand.NewSource(seed))
		runFuzzWorld(t, seed, rng)
	}
}

func runFuzzWorld(t *testing.T, seed int64, rng *rand.Rand) {
	t.Helper()
	bands := []phys.Band{phys.Band80211B, phys.Band80211A}
	transports := []Transport{UDP, TCP}
	cfg := Config{
		Seed:      seed,
		Band:      bands[rng.Intn(2)],
		UseRTSCTS: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 1:
		cfg.Error = phys.BERSpec([]float64{1e-5, 2e-4, 8e-4}[rng.Intn(3)])
	case 2:
		cfg.Error = phys.FERSpec([]float64{0.1, 0.4}[rng.Intn(2)])
	}
	cfg.ForceCapture = rng.Intn(2) == 0

	n := 1 + rng.Intn(4)
	tr := transports[rng.Intn(2)]
	specs := make([]StationSpec, n)
	for i := range specs {
		var p PolicySpec
		switch rng.Intn(4) {
		case 1:
			p = PolicySpec{Name: PolicyNAVInflation,
				NAVInflation: sim.Time(1+rng.Intn(30)) * sim.Millisecond}
		case 2:
			p = PolicySpec{Name: PolicyACKSpoofing}
		case 3:
			p = PolicySpec{Name: PolicyFakeACKs}
		default:
			continue
		}
		p.GreedyPercent = percent(float64(rng.Intn(101)))
		specs[i].Policy = p
	}
	w, err := BuildPairs(PairsConfig{
		Config:        cfg,
		N:             n,
		Transport:     tr,
		ReceiverSpecs: specs,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	rec := trace.NewRecorder(8)
	w.Medium.AddTap(rec)
	const d = 2 * sim.Second
	w.Run(d)

	var totalTx, totalDecoded int64
	for i := 0; i < n; i++ {
		snd, _ := w.Station(SenderName(i))
		rcv, _ := w.Station(ReceiverName(i))
		fl, _ := w.Flow(i + 1)

		// (1) conservation per flow.
		var sent int64
		switch tr {
		case UDP:
			sent = fl.CBR.Offered()
		case TCP:
			sent = fl.TCPSend.SegmentsSent
		}
		if got := fl.Stats().UniquePackets; got > sent {
			t.Errorf("seed %d flow %d: delivered %d unique > sent %d", seed, i+1, got, sent)
		}

		for _, st := range []*Station{snd, rcv} {
			c := st.DCF.Counters()
			// (2) MAC MSDU accounting (±1 for the frame in service).
			accounted := c.MSDUSuccess + c.MSDURetryDrop + c.MSDUQueueDrop +
				int64(st.DCF.QueueLen())
			if c.MSDUEnqueued < accounted || c.MSDUEnqueued > accounted+1 {
				t.Errorf("seed %d %s: enqueued %d vs accounted %d",
					seed, st.Name, c.MSDUEnqueued, accounted)
			}
			// (4) CW bounds.
			if c.CWSamples > 0 {
				avg := c.AvgCW()
				if avg < float64(w.Params.CWMin) || avg > float64(w.Params.CWMax) {
					t.Errorf("seed %d %s: avg CW %.1f outside [%d,%d]",
						seed, st.Name, avg, w.Params.CWMin, w.Params.CWMax)
				}
				for cw := range c.CWHist {
					if cw < w.Params.CWMin || cw > w.Params.CWMax {
						t.Errorf("seed %d %s: sampled CW %d out of range", seed, st.Name, cw)
					}
				}
			}
			// (3) receivers deliver at most one copy per (src, seq):
			// DataDelivered counts non-duplicates; the duplicate counter
			// absorbs the rest.
			if c.DataDelivered < 0 || c.DataDuplicates < 0 {
				t.Errorf("seed %d %s: negative rx counters", seed, st.Name)
			}
		}
	}
	st := rec.Stats()
	for _, v := range st.TxCount {
		totalTx += v
	}
	totalDecoded = st.Decoded + st.Corrupted
	// (5) each transmission is heard at most once per other radio.
	if maxRx := totalTx * int64(2*n-1); totalDecoded > maxRx {
		t.Errorf("seed %d: %d receptions exceed %d tx × %d radios",
			seed, totalDecoded, totalTx, 2*n-1)
	}
	if totalTx == 0 {
		t.Errorf("seed %d: world carried no traffic", seed)
	}
}

// TestGoodputNeverExceedsChannelCapacity asserts the physical bound: the
// sum of all delivered application bytes cannot exceed what the data rate
// could carry in the elapsed time.
func TestGoodputNeverExceedsChannelCapacity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		w, err := BuildPairs(PairsConfig{
			Config:    Config{Seed: seed, UseRTSCTS: true},
			N:         3,
			Transport: UDP,
		})
		if err != nil {
			t.Fatal(err)
		}
		const d = 2 * sim.Second
		w.Run(d)
		var total float64
		for _, fl := range w.Flows() {
			total += fl.GoodputMbps(d)
		}
		if total > 11.0 {
			t.Errorf("seed %d: aggregate goodput %.2f Mbps exceeds the 11 Mbps PHY", seed, total)
		}
		// With protocol overhead the practical ceiling is ≈4 Mbps.
		if total > 4.5 {
			t.Errorf("seed %d: aggregate %.2f Mbps above the DCF ceiling", seed, total)
		}
	}
}

// TestSaturationModelMatchesSimulator cross-validates the Bianchi-style
// model (analytic.Saturation) against measured per-flow goodput for
// several network sizes — the same model-vs-simulation methodology as the
// paper's Fig 3.
func TestSaturationModelMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("model cross-validation skipped in -short mode")
	}
	for _, n := range []int{1, 2, 4, 8} {
		res, err := analytic.Saturation(analytic.SaturationConfig{
			Stations:      n,
			Params:        phys.Params80211B(),
			PayloadBytes:  1024,
			OverheadBytes: 28,
			UseRTSCTS:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := BuildPairs(PairsConfig{
			Config:    Config{Seed: int64(100 + n), UseRTSCTS: true},
			N:         n,
			Transport: UDP,
		})
		if err != nil {
			t.Fatal(err)
		}
		const d = 4 * sim.Second
		w.Run(d)
		var total float64
		for _, fl := range w.Flows() {
			total += fl.GoodputMbps(d)
		}
		measured := total / float64(n)
		predicted := res.PerStationBps / 1e6
		ratio := measured / predicted
		if ratio < 0.85 || ratio > 1.2 {
			t.Errorf("n=%d: measured %.2f vs model %.2f Mbps per flow (ratio %.2f)",
				n, measured, predicted, ratio)
		}
	}
}

// TestDeterminism: identical seeds must give byte-identical outcomes.
func TestDeterminism(t *testing.T) {
	build := func() *World {
		w, err := BuildPairs(PairsConfig{
			Config:        Config{Seed: 77, UseRTSCTS: true, Error: phys.BERSpec(2e-4)},
			N:             2,
			Transport:     TCP,
			ReceiverSpecs: []StationSpec{{}, {Policy: PolicySpec{Name: PolicyACKSpoofing}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := build(), build()
	a.Run(3 * sim.Second)
	b.Run(3 * sim.Second)
	for id := 1; id <= 2; id++ {
		fa, _ := a.Flow(id)
		fb, _ := b.Flow(id)
		if fa.Stats() != fb.Stats() {
			t.Errorf("flow %d stats diverged across identical runs: %+v vs %+v",
				id, fa.Stats(), fb.Stats())
		}
	}
	for _, name := range []string{SenderName(0), SenderName(1), ReceiverName(0), ReceiverName(1)} {
		sa, _ := a.Station(name)
		sb, _ := b.Station(name)
		ca, cb := sa.DCF.Counters(), sb.DCF.Counters()
		if ca.DataSent != cb.DataSent || ca.ACKTimeouts != cb.ACKTimeouts ||
			ca.MSDUSuccess != cb.MSDUSuccess {
			t.Errorf("station %s counters diverged", name)
		}
	}
	if a.Sched.Executed() != b.Sched.Executed() {
		t.Errorf("event counts diverged: %d vs %d", a.Sched.Executed(), b.Sched.Executed())
	}
}

// TestMACQueueIsFIFO: packets to one destination are delivered in the
// order they were enqueued.
func TestMACQueueIsFIFO(t *testing.T) {
	w, err := NewWorld(Config{Seed: 5, UseRTSCTS: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddStation("rx", phys.Position{X: 5}, StationOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddStation("tx", phys.Position{}, StationOpts{}); err != nil {
		t.Fatal(err)
	}
	tx, _ := w.Station("tx")
	rx, _ := w.Station("rx")
	tx.Node.SetRoute(1, tx.Node.WirelessTo(rx.ID))
	var got []int
	rx.Node.AddAgent(1, orderAgent{&got})
	out := tx.Node.OutputFor(1)
	for i := 0; i < 20; i++ {
		i := i
		w.Sched.Schedule(sim.Time(i)*sim.Microsecond, func() {
			out.Output(&transport.Packet{Flow: 1, Seq: i, PayloadBytes: 500, WireBytes: 528})
		})
	}
	w.Sched.RunUntil(sim.Second)
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

// orderAgent records the arrival order of sequence numbers.
type orderAgent struct{ got *[]int }

func (a orderAgent) Receive(p *transport.Packet) { *a.got = append(*a.got, p.Seq) }
