package scenario

import (
	"testing"

	"greedy80211/internal/detect"
	"greedy80211/internal/greedy"
	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
	"greedy80211/internal/trace"
	"greedy80211/internal/transport"
	"greedy80211/internal/wireline"
)

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{Band: phys.Band(9)}); err == nil {
		t.Error("unknown band accepted")
	}
	w, err := NewWorld(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddStation("a", phys.Position{}, StationOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddStation("a", phys.Position{}, StationOpts{}); err == nil {
		t.Error("duplicate station accepted")
	}
	if _, err := w.AddUDPFlow(1, "a", "nope", 1e6, 1024); err == nil {
		t.Error("unknown receiver accepted")
	}
	if _, err := w.AddStation("bad", phys.Position{}, StationOpts{
		SpoofEmulationVictims: []string{"ghost"},
	}); err == nil {
		t.Error("unknown emulation victim accepted")
	}
}

func TestBuildPairsUDPFairBaseline(t *testing.T) {
	w, err := BuildPairs(PairsConfig{
		Config:    Config{Seed: 1, UseRTSCTS: true},
		N:         2,
		Transport: UDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(4 * sim.Second)
	f1, _ := w.Flow(1)
	f2, _ := w.Flow(2)
	g1, g2 := f1.GoodputMbps(4*sim.Second), f2.GoodputMbps(4*sim.Second)
	if g1 < 1.0 || g2 < 1.0 {
		t.Errorf("baseline goodputs %.2f / %.2f Mbps, want ≈1.6 each (Fig 1 at α=0)", g1, g2)
	}
	if ratio := g1 / g2; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("baseline unfair: %.2f vs %.2f", g1, g2)
	}
}

// Fig 1's headline: a greedy receiver inflating CTS NAV starves the
// competing UDP flow even at modest inflation.
func TestNAVInflationUDPStarvation(t *testing.T) {
	w, err := BuildPairs(PairsConfig{
		Config:    Config{Seed: 3, UseRTSCTS: true},
		N:         2,
		Transport: UDP,
		ReceiverSpecs: []StationSpec{{}, {Policy: PolicySpec{
			Name: PolicyNAVInflation, NAVInflation: 5 * sim.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(4 * sim.Second)
	nr, _ := w.Flow(1)
	gr, _ := w.Flow(2)
	gN, gG := nr.GoodputMbps(4*sim.Second), gr.GoodputMbps(4*sim.Second)
	if gG < 2.5 {
		t.Errorf("greedy goodput %.2f Mbps, want near channel capacity", gG)
	}
	if gN > gG/10 {
		t.Errorf("normal receiver got %.2f vs greedy %.2f; want starvation", gN, gG)
	}
}

// Fig 4(a) shape: under TCP, CTS NAV inflation gives the greedy receiver
// more goodput, growing with the inflation amount.
func TestNAVInflationTCPGain(t *testing.T) {
	run := func(extra sim.Time) (normal, greedyG float64) {
		w, err := BuildPairs(PairsConfig{
			Config:    Config{Seed: 5, UseRTSCTS: true},
			N:         2,
			Transport: TCP,
			ReceiverSpecs: []StationSpec{{}, {Policy: PolicySpec{
				Name: PolicyNAVInflation, NAVInflation: extra, Frames: "cts"}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(4 * sim.Second)
		f1, _ := w.Flow(1)
		f2, _ := w.Flow(2)
		return f1.GoodputMbps(4 * sim.Second), f2.GoodputMbps(4 * sim.Second)
	}
	n5, g5 := run(5 * sim.Millisecond)
	if g5 <= n5 {
		t.Errorf("5ms CTS inflation: greedy %.2f ≤ normal %.2f", g5, n5)
	}
	n31, g31 := run(31 * sim.Millisecond)
	if g31 <= n31*3 {
		t.Errorf("31ms CTS inflation: greedy %.2f vs normal %.2f, want dominance", g31, n31)
	}
}

// spooferSpecs makes R2 spoof ACKs for R1 when spoof is set.
func spooferSpecs(spoof bool) []StationSpec {
	if !spoof {
		return nil
	}
	return []StationSpec{{}, {Policy: PolicySpec{Name: PolicyACKSpoofing, Victims: []string{ReceiverName(0)}}}}
}

// Fig 11 shape: ACK spoofing under loss hurts the normal TCP flow.
func TestSpoofingDegradesNormalTCP(t *testing.T) {
	build := func(seed int64, spoof bool) *World {
		w, err := BuildPairs(PairsConfig{
			Config: Config{
				Seed:         seed,
				UseRTSCTS:    true,
				Error:        phys.BERSpec(2e-4),
				ForceCapture: true,
			},
			N:             2,
			Transport:     TCP,
			ReceiverSpecs: spooferSpecs(spoof),
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	const d = 6 * sim.Second
	base := build(7, false)
	base.Run(d)
	b1, _ := base.Flow(1)
	baseline := b1.GoodputMbps(d)

	att := build(7, true)
	att.Run(d)
	a1, _ := att.Flow(1)
	a2, _ := att.Flow(2)
	victim, attacker := a1.GoodputMbps(d), a2.GoodputMbps(d)

	if victim > baseline*0.7 {
		t.Errorf("victim %.2f vs baseline %.2f Mbps: spoofing should hurt", victim, baseline)
	}
	if attacker <= victim {
		t.Errorf("attacker %.2f ≤ victim %.2f: spoofing should pay off", attacker, victim)
	}
	// The spoofer must actually have forged ACKs.
	gr, _ := att.Station(ReceiverName(1))
	if gr.DCF.Counters().SpoofedACKsSent == 0 {
		t.Error("no spoofed ACKs were transmitted")
	}
}

// Fig 18 / Table IV shape: fake ACKs under hidden-terminal collisions give
// the greedy receiver goodput and keep its sender's CW at the minimum.
func TestFakeACKHiddenTerminals(t *testing.T) {
	w, err := BuildHiddenPairs(HiddenPairsConfig{
		Config:        Config{Seed: 9},
		ReceiverSpecs: []StationSpec{{}, {Policy: PolicySpec{Name: PolicyFakeACKs}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(4 * sim.Second)
	f1, _ := w.Flow(1)
	f2, _ := w.Flow(2)
	gN, gG := f1.GoodputMbps(4*sim.Second), f2.GoodputMbps(4*sim.Second)
	if gG <= gN {
		t.Errorf("fake-ACK receiver %.2f ≤ normal %.2f under hidden terminals", gG, gN)
	}
	s1, _ := w.Station(SenderName(0))
	s2, _ := w.Station(SenderName(1))
	cwN, cwG := s1.DCF.Counters().AvgCW(), s2.DCF.Counters().AvgCW()
	if cwG >= cwN {
		t.Errorf("greedy sender CW %.0f ≥ normal %.0f; fake ACKs should pin it low", cwG, cwN)
	}
	gr, _ := w.Station(ReceiverName(1))
	if gr.DCF.Counters().FakeACKsSent == 0 {
		t.Error("no fake ACKs were transmitted")
	}
}

// Fig 23 shape: GRC's NAV guard restores fairness against CTS inflation.
func TestGRCDefeatsNAVInflation(t *testing.T) {
	grcCfg := detect.DefaultConfig()
	build := func(withGRC bool) *World {
		var grc *detect.Config
		if withGRC {
			grc = &grcCfg
		}
		w, err := BuildPairs(PairsConfig{
			Config:    Config{Seed: 11, UseRTSCTS: true},
			N:         2,
			Transport: UDP,
			ReceiverSpecs: []StationSpec{{GRC: grc}, {GRC: grc, Policy: PolicySpec{
				Name: PolicyNAVInflation, NAVInflation: 31 * sim.Millisecond, Frames: "cts"}}},
			SenderSpecs: []StationSpec{{GRC: grc}, {GRC: grc}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	const d = 4 * sim.Second
	unprot := build(false)
	unprot.Run(d)
	u1, _ := unprot.Flow(1)
	if u1.GoodputMbps(d) > 0.2 {
		t.Fatalf("attack ineffective without GRC: normal got %.2f Mbps", u1.GoodputMbps(d))
	}

	prot := build(true)
	prot.Run(d)
	p1, _ := prot.Flow(1)
	p2, _ := prot.Flow(2)
	gN, gG := p1.GoodputMbps(d), p2.GoodputMbps(d)
	if gN < gG*0.6 {
		t.Errorf("GRC did not restore fairness: %.2f vs %.2f", gN, gG)
	}
	ns, _ := prot.Station(SenderName(0))
	if ns.GRC.Stats().NAVClamped == 0 {
		t.Error("GRC never clamped a NAV")
	}
}

// Fig 24 shape: GRC's RSSI check recovers from ACK spoofing.
func TestGRCDefeatsSpoofing(t *testing.T) {
	grcCfg := detect.DefaultConfig()
	build := func(withGRC bool) *World {
		w, err := NewWorld(Config{
			Seed: 13, UseRTSCTS: true, Error: phys.BERSpec(4.4e-4), ForceCapture: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// R2 (the spoofer) sits far from S1 so its forged ACKs arrive
		// ≥10 dB below R1's — the regime where GRC can safely ignore them.
		mustAdd := func(name string, pos phys.Position, opts StationOpts) {
			t.Helper()
			if _, err := w.AddStation(name, pos, opts); err != nil {
				t.Fatal(err)
			}
		}
		mustAdd("R1", phys.Position{X: 5}, StationOpts{})
		var spoofOpts StationOpts
		r1, _ := w.Station("R1")
		spoofOpts.Policy = greedy.NewACKSpoofer(w.Sched.RNG(), 100, r1.ID)
		mustAdd("R2", phys.Position{X: 5, Y: 30}, spoofOpts)
		senderOpts := StationOpts{}
		if withGRC {
			senderOpts.GRC = &grcCfg
		}
		mustAdd("S1", phys.Position{}, senderOpts)
		mustAdd("S2", phys.Position{Y: 30}, StationOpts{})
		if _, err := w.AddTCPFlow(1, "S1", "R1", transport.DefaultTCPConfig(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddTCPFlow(2, "S2", "R2", transport.DefaultTCPConfig(2)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	const d = 6 * sim.Second
	unprot := build(false)
	unprot.Run(d)
	prot := build(true)
	prot.Run(d)

	u1, _ := unprot.Flow(1)
	p1, _ := prot.Flow(1)
	if p1.GoodputMbps(d) < u1.GoodputMbps(d)*1.2 {
		t.Errorf("GRC victim goodput %.2f vs unprotected %.2f: recovery missing",
			p1.GoodputMbps(d), u1.GoodputMbps(d))
	}
	s1, _ := prot.Station("S1")
	st := s1.GRC.Stats()
	if st.SpoofIgnored == 0 {
		t.Errorf("GRC never ignored a spoofed ACK: %+v", st)
	}
}

// Section VII-B's mobile-client fallback: the cross-layer detector flags
// spoofing by correlating MAC-acknowledged TCP segments with later TCP
// retransmissions, without any RSSI assumption.
func TestCrossLayerDetectsSpoofing(t *testing.T) {
	run := func(spoof bool) *detect.CrossLayer {
		w, err := BuildPairs(PairsConfig{
			Config: Config{
				Seed: 31, UseRTSCTS: true, Error: phys.BERSpec(2e-4), ForceCapture: true,
			},
			N:             2,
			Transport:     TCP,
			ReceiverSpecs: spooferSpecs(spoof),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Wire the detector at the victim's sender.
		xl := detect.NewCrossLayer(512, 12)
		s1, _ := w.Station(SenderName(0))
		s1.Node.TxDoneHook = func(f *mac.Frame, ok bool) {
			p, okCast := f.Payload.(*transport.Packet)
			if ok && okCast && !p.IsACK {
				xl.OnMACAcked(p.Flow, p.Seq)
			}
		}
		f1, _ := w.Flow(1)
		f1.TCPSend.RetransmitHook = func(seq int) { xl.OnTCPRetransmit(1, seq) }
		w.Run(15 * sim.Second)
		return xl
	}
	honest := run(false)
	if honest.Detected() {
		t.Errorf("cross-layer flagged an honest network (%d anomalies)", honest.Anomalies)
	}
	attacked := run(true)
	if !attacked.Detected() {
		t.Errorf("cross-layer missed the spoofing attack (%d anomalies)", attacked.Anomalies)
	}
	if attacked.Anomalies < 3*honest.Anomalies+3 {
		t.Errorf("weak separation: %d vs %d anomalies", attacked.Anomalies, honest.Anomalies)
	}
}

// Remote-sender wiring (Fig 15 substrate): a wired host reaches a wireless
// receiver through the AP bridge, and TCP ACKs flow back.
func TestRemoteSenderBridge(t *testing.T) {
	w, err := NewWorld(Config{Seed: 15, UseRTSCTS: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddStation("AP", phys.Position{}, StationOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddStation("R1", phys.Position{X: 5}, StationOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddWiredHost("H1"); err != nil {
		t.Fatal(err)
	}
	if err := w.ConnectWired("H1", "AP", wireline.Config{Delay: 20 * sim.Millisecond, RateBps: 100e6}); err != nil {
		t.Fatal(err)
	}
	fl, err := w.AddTCPFlow(1, "H1", "R1", transport.DefaultTCPConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(4 * sim.Second)
	if fl.GoodputMbps(4*sim.Second) < 1.0 {
		t.Errorf("remote TCP goodput %.2f Mbps, want >1", fl.GoodputMbps(4*sim.Second))
	}
	// RTT should reflect the 40 ms round trip.
	if srtt := fl.TCPSend.SRTT(); srtt < 40*sim.Millisecond {
		t.Errorf("SRTT %v < wired RTT", srtt)
	}
}

func TestConnectWiredValidation(t *testing.T) {
	w, _ := NewWorld(Config{Seed: 1})
	_, _ = w.AddStation("AP", phys.Position{}, StationOpts{})
	_, _ = w.AddWiredHost("H")
	if err := w.ConnectWired("AP", "AP", wireline.Config{}); err == nil {
		t.Error("wireless station accepted as wired host")
	}
	if err := w.ConnectWired("H", "H", wireline.Config{}); err == nil {
		t.Error("wired host accepted as AP")
	}
	if err := w.ConnectWired("H", "AP", wireline.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := w.ConnectWired("H", "AP", wireline.Config{}); err == nil {
		t.Error("double connection accepted")
	}
	// Flow through an unconnected host fails.
	w2, _ := NewWorld(Config{Seed: 1})
	_, _ = w2.AddWiredHost("H")
	_, _ = w2.AddStation("R", phys.Position{}, StationOpts{})
	if _, err := w2.AddTCPFlow(1, "H", "R", transport.DefaultTCPConfig(1)); err == nil {
		t.Error("flow through unconnected host accepted")
	}
}

func TestSharedAPHeadOfLineBlocking(t *testing.T) {
	w, err := BuildSharedAP(SharedAPConfig{
		Config:        Config{Seed: 17, UseRTSCTS: true},
		N:             2,
		Transport:     UDP,
		ReceiverSpecs: []StationSpec{{}, {Policy: PolicySpec{Name: PolicyNAVInflation, Frames: "cts"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(4 * sim.Second)
	f1, _ := w.Flow(1)
	f2, _ := w.Flow(2)
	g1, g2 := f1.GoodputMbps(4*sim.Second), f2.GoodputMbps(4*sim.Second)
	// Fig 10(c): with a shared sender under UDP the inflation mostly hurts
	// the shared queue — total goodput collapses and the greedy receiver's
	// residual gain is far below the ≥10× of the two-sender case. (ns-2
	// shows near-equality; our DCF drops the victim's head-of-line packet
	// after RTS retry exhaustion, leaving a modest gain — see
	// EXPERIMENTS.md.)
	total := g1 + g2
	if total > 2.5 {
		t.Errorf("shared-AP UDP total %.2f Mbps: inflation should hurt the shared queue", total)
	}
	if g2 > 4*g1 {
		t.Errorf("shared-AP UDP greedy %.2f vs normal %.2f: gain should stay modest", g2, g1)
	}
}

func TestTraceTapIntegration(t *testing.T) {
	rec := trace.NewRecorder(64)
	w, err := BuildPairs(PairsConfig{
		Config:    Config{Seed: 29, UseRTSCTS: true},
		N:         2,
		Transport: UDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Medium.AddTap(rec)
	w.Run(sim.Second)

	st := rec.Stats()
	for _, ft := range []mac.FrameType{mac.FrameRTS, mac.FrameCTS, mac.FrameData, mac.FrameACK} {
		if st.TxCount[ft] == 0 {
			t.Errorf("trace counted no %v frames", ft)
		}
	}
	util := rec.Utilization(sim.Second)
	if util <= 0.3 || util > 1.5 {
		t.Errorf("saturated-channel utilization = %.2f", util)
	}
	if len(rec.Events()) != 64 {
		t.Errorf("ring retained %d events, want 64", len(rec.Events()))
	}
	// Two saturated senders should split airtime roughly evenly.
	s1, _ := w.Station(SenderName(0))
	s2, _ := w.Station(SenderName(1))
	a1 := st.AirtimePerStation[s1.ID]
	a2 := st.AirtimePerStation[s2.ID]
	if a1 == 0 || a2 == 0 {
		t.Fatal("missing per-station airtime")
	}
	ratio := float64(a1) / float64(a2)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("airtime split %v vs %v (ratio %.2f)", a1, a2, ratio)
	}
}

// Section VII-C end to end: active probing distinguishes a fake-ACKing
// receiver (application loss with a clean-looking MAC) from an honest one.
func TestFakeACKDetectionViaProbing(t *testing.T) {
	build := func(fake bool) (*World, *ProbeFlow) {
		cfg := PairsConfig{
			// BER high enough that data frames (and probes) are lossy
			// while control frames mostly survive.
			Config:    Config{Seed: 23, UseRTSCTS: true, Error: phys.BERSpec(8e-4)},
			N:         1,
			Transport: UDP,
			// Keep the MAC queue unsaturated so probes are not
			// queue-dropped before they ever reach the air.
			CBRRateBps: 5e5,
		}
		if fake {
			cfg.ReceiverSpecs = []StationSpec{{Policy: PolicySpec{Name: PolicyFakeACKs}}}
		}
		w, err := BuildPairs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := w.AddProbeFlow(99, SenderName(0), ReceiverName(0), 20*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return w, pf
	}
	const d = 8 * sim.Second
	det := detect.NewFakeACKDetector(phys.Params80211B().LongRetryLimit, 0.02)

	honestW, honestPf := build(false)
	honestW.Run(d)
	hs, _ := honestW.Station(SenderName(0))
	hc := hs.DCF.Counters()
	honestMACLoss := float64(hc.ACKTimeouts) / float64(hc.DataSent)
	if det.Evaluate(honestMACLoss, honestPf.Prober.AppLoss()) {
		t.Errorf("honest receiver flagged: macLoss=%.3f appLoss=%.3f",
			honestMACLoss, honestPf.Prober.AppLoss())
	}

	fakeW, fakePf := build(true)
	fakeW.Run(d)
	fs, _ := fakeW.Station(SenderName(0))
	fc := fs.DCF.Counters()
	fakeMACLoss := float64(fc.ACKTimeouts) / float64(fc.DataSent)
	if !det.Evaluate(fakeMACLoss, fakePf.Prober.AppLoss()) {
		t.Errorf("fake-ACKing receiver not flagged: macLoss=%.3f appLoss=%.3f",
			fakeMACLoss, fakePf.Prober.AppLoss())
	}
}

func TestSpoofEmulationOption(t *testing.T) {
	// Table VIII substrate: sender treats ACK timeouts toward R1 as
	// success; under loss, R1's TCP suffers while R2's does not.
	// The BuildPairs layout, built by hand: the emulation knob is a
	// StationOpts value with no StationSpec counterpart.
	w, err := NewWorld(Config{Seed: 19, UseRTSCTS: true, Error: phys.BERSpec(2e-4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name string
		pos  phys.Position
		opts StationOpts
	}{
		{ReceiverName(0), phys.Position{X: 5}, StationOpts{}},
		{ReceiverName(1), phys.Position{X: 5, Y: 30}, StationOpts{}},
		{SenderName(0), phys.Position{}, StationOpts{SpoofEmulationVictims: []string{ReceiverName(0)}}},
		{SenderName(1), phys.Position{Y: 30}, StationOpts{}},
	} {
		if _, err := w.AddStation(st.name, st.pos, st.opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := w.AddTCPFlow(i+1, SenderName(i), ReceiverName(i), transport.DefaultTCPConfig(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	w.Run(5 * sim.Second)
	f1, _ := w.Flow(1)
	f2, _ := w.Flow(2)
	if f1.GoodputMbps(5*sim.Second) >= f2.GoodputMbps(5*sim.Second) {
		t.Errorf("victim %.2f ≥ protected %.2f under spoof emulation",
			f1.GoodputMbps(5*sim.Second), f2.GoodputMbps(5*sim.Second))
	}
	s1, _ := w.Station(SenderName(0))
	if s1.DCF.Counters().ACKTimeouts != 0 {
		t.Error("spoof emulation still counted ACK timeouts")
	}
}
