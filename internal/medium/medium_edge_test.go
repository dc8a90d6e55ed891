package medium

import (
	"math/rand"
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// rxCollector records raw reception outcomes at one radio.
type rxCollector struct {
	busy    []bool
	decoded []*mac.Frame
	corrupt []*mac.Frame
	rssi    []float64
}

func (c *rxCollector) ChannelBusy(b bool) { c.busy = append(c.busy, b) }
func (c *rxCollector) RxEnd(f *mac.Frame, info mac.RxInfo) {
	c.rssi = append(c.rssi, info.RSSIDBm)
	if info.Decoded {
		c.decoded = append(c.decoded, f)
	} else {
		c.corrupt = append(c.corrupt, f)
	}
}

func dataFrame(src, dst mac.NodeID, seq uint16) *mac.Frame {
	return &mac.Frame{Type: mac.FrameData, Src: src, Dst: dst, Seq: seq, MACBytes: 1052}
}

// setupRaw builds a medium with raw collectors at each position.
func setupRaw(t *testing.T, cfg Config, positions []phys.Position) (*sim.Scheduler, *Medium, []*rxCollector) {
	t.Helper()
	sched := sim.NewScheduler(3)
	m, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]*rxCollector, len(positions))
	for i, pos := range positions {
		cols[i] = &rxCollector{}
		if err := m.AddRadio(mac.NodeID(i+1), pos, cols[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sched, m, cols
}

func TestOverlapWithoutCaptureCorruptsBoth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RSSI = phys.RSSIModel{} // no jitter: deterministic power comparison
	// Senders 1 and 2 equidistant from receiver 3: no capture possible.
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{X: -10}, {X: 10}, {Y: 0},
	})
	air := 500 * sim.Microsecond
	m.Transmit(1, dataFrame(1, 3, 1), air)
	m.Transmit(2, dataFrame(2, 3, 2), air)
	sched.Run()

	rx := cols[2]
	if len(rx.decoded) != 0 {
		t.Errorf("equidistant overlap decoded %d frames, want 0", len(rx.decoded))
	}
	if len(rx.corrupt) != 2 {
		t.Errorf("corrupted %d frames, want 2", len(rx.corrupt))
	}
}

func TestOverlapWithCaptureDecodesStronger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RSSI = phys.RSSIModel{}
	// Sender 1 at 5 m, sender 2 at 50 m from receiver 3: 40 dB apart.
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{X: -5}, {X: 50}, {},
	})
	air := 500 * sim.Microsecond
	m.Transmit(1, dataFrame(1, 3, 1), air)
	m.Transmit(2, dataFrame(2, 3, 2), air)
	sched.Run()

	rx := cols[2]
	if len(rx.decoded) != 1 || rx.decoded[0].Src != 1 {
		t.Errorf("capture should decode sender 1's frame: decoded %v", rx.decoded)
	}
	if len(rx.corrupt) != 1 || rx.corrupt[0].Src != 2 {
		t.Errorf("weaker frame should corrupt: %v", rx.corrupt)
	}
}

func TestCaptureDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RSSI = phys.RSSIModel{}
	cfg.CaptureEnabled = false
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{X: -5}, {X: 50}, {},
	})
	air := 500 * sim.Microsecond
	m.Transmit(1, dataFrame(1, 3, 1), air)
	m.Transmit(2, dataFrame(2, 3, 2), air)
	sched.Run()
	if len(cols[2].decoded) != 0 {
		t.Error("capture disabled but a frame was decoded from an overlap")
	}
}

func TestForceCaptureResolvesSmallMargins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RSSI = phys.RSSIModel{}
	cfg.ForceCapture = true
	// 5 m vs 6 m: ≈3 dB apart — below the 10 dB threshold, but force
	// capture hands the frame to the stronger anyway.
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{X: -5}, {X: 6}, {},
	})
	air := 500 * sim.Microsecond
	m.Transmit(1, dataFrame(1, 3, 1), air)
	m.Transmit(2, dataFrame(2, 3, 2), air)
	sched.Run()
	if len(cols[2].decoded) != 1 || cols[2].decoded[0].Src != 1 {
		t.Errorf("force capture should decode the stronger frame: %v", cols[2].decoded)
	}
}

func TestHalfDuplexDeafness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RSSI = phys.RSSIModel{}
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{}, {X: 5},
	})
	air := 500 * sim.Microsecond
	// Radio 2 starts transmitting, then radio 1's frame arrives at 2
	// mid-transmission: 2 must hear nothing.
	m.Transmit(2, dataFrame(2, 1, 1), air)
	sched.RunUntil(100 * sim.Microsecond)
	m.Transmit(1, dataFrame(1, 2, 2), air)
	sched.Run()

	if n := len(cols[1].decoded) + len(cols[1].corrupt); n != 0 {
		t.Errorf("transmitting radio received %d frames", n)
	}
	// Radio 1 finished its reception window after its own tx? Radio 1
	// receives 2's frame only for the part before its own tx began —
	// here they overlap, so radio 1 is deaf to it too.
	if n := len(cols[0].decoded); n != 0 {
		t.Errorf("radio 1 decoded %d frames while transmitting", n)
	}
}

func TestNonOverlappingSequentialFramesBothDecode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RSSI = phys.RSSIModel{}
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{X: -10}, {X: 10}, {},
	})
	air := 200 * sim.Microsecond
	m.Transmit(1, dataFrame(1, 3, 1), air)
	sched.RunUntil(300 * sim.Microsecond) // first frame fully done
	m.Transmit(2, dataFrame(2, 3, 2), air)
	sched.Run()
	if len(cols[2].decoded) != 2 {
		t.Errorf("sequential frames decoded %d, want 2", len(cols[2].decoded))
	}
}

func TestBusyTransitionsBalance(t *testing.T) {
	cfg := DefaultConfig()
	sched, m, cols := setupRaw(t, cfg, []phys.Position{
		{}, {X: 5},
	})
	air := 300 * sim.Microsecond
	for i := 0; i < 5; i++ {
		m.Transmit(1, dataFrame(1, 2, uint16(i)), air)
		sched.RunUntil(sched.Now() + 400*sim.Microsecond)
	}
	sched.Run()
	ups, downs := 0, 0
	for _, b := range cols[1].busy {
		if b {
			ups++
		} else {
			downs++
		}
	}
	if ups != downs || ups != 5 {
		t.Errorf("busy transitions unbalanced: %d up, %d down", ups, downs)
	}
}

func TestAddrModelDrawRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := AddrModel80211A() // 0.84 / 0.914
	const n = 50000
	dstOK, srcOK := 0, 0
	for i := 0; i < n; i++ {
		c := m.Draw(rng)
		if !c.Corrupted {
			t.Fatal("Draw must mark the frame corrupted")
		}
		if !c.DstHit {
			dstOK++
		}
		if !c.SrcHit {
			srcOK++
		}
	}
	if got := float64(dstOK) / n; got < 0.82 || got > 0.86 {
		t.Errorf("dst preserved rate = %.3f, want ≈0.84", got)
	}
	if got := float64(srcOK) / n; got < 0.89 || got > 0.93 {
		t.Errorf("src preserved rate = %.3f, want ≈0.914", got)
	}
}

func TestSetLinkErrorValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	m, err := New(sched, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("nil error model accepted")
		}
	}()
	m.SetLinkError(1, 2, nil)
}

func TestTransmitValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	m, err := New(sched, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("unregistered radio", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		m.Transmit(9, dataFrame(9, 1, 0), sim.Microsecond)
	})
	t.Run("zero airtime", func(t *testing.T) {
		col := &rxCollector{}
		if err := m.AddRadio(1, phys.Position{}, col); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		m.Transmit(1, dataFrame(1, 2, 0), 0)
	})
}

// tapRecorder counts tap callbacks for the medium-side contract.
type tapRecorder struct {
	tx, rx int
	lastAt sim.Time
}

func (r *tapRecorder) OnTransmit(mac.NodeID, *mac.Frame, sim.Time, sim.Time) { r.tx++ }
func (r *tapRecorder) OnReceive(_ mac.NodeID, _ *mac.Frame, _ mac.RxInfo, at sim.Time) {
	r.rx++
	r.lastAt = at
}

func TestMediumTapContract(t *testing.T) {
	cfg := DefaultConfig()
	tap := &tapRecorder{}
	sched, m, _ := setupRaw(t, cfg, []phys.Position{
		{}, {X: 5}, {X: 0, Y: 5},
	})
	m.AddTap(tap)
	air := 300 * sim.Microsecond
	m.Transmit(1, dataFrame(1, 2, 1), air)
	sched.Run()
	if tap.tx != 1 {
		t.Errorf("tap tx = %d, want 1", tap.tx)
	}
	if tap.rx != 2 { // radios 2 and 3 both hear it
		t.Errorf("tap rx = %d, want 2", tap.rx)
	}
	// Arrival end = airtime + propagation delay (≤1 µs at these ranges).
	if tap.lastAt < air || tap.lastAt > air+sim.Microsecond {
		t.Errorf("tap rx time = %v, want ≈ frame end %v", tap.lastAt, air)
	}
}
