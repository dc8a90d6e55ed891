package analytic

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestCWDistNormalize(t *testing.T) {
	d := CWDist{{31, 2}, {63, 2}}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if want := (CWDist{{31, 0.5}, {63, 0.5}}); !slices.Equal(d, want) {
		t.Errorf("normalized = %v, want %v", d, want)
	}
	if err := (CWDist{}).Normalize(); err == nil {
		t.Error("empty dist normalized")
	}
	if err := (CWDist{{-1, 1}}).Normalize(); err == nil {
		t.Error("negative CW accepted")
	}
}

func TestFromCounts(t *testing.T) {
	d := FromCounts(map[int]int64{127: 1, 31: 2, 63: 1})
	if want := (CWDist{{31, 0.5}, {63, 0.25}, {127, 0.25}}); !slices.Equal(d, want) {
		t.Errorf("FromCounts = %v, want %v", d, want)
	}
	if len(FromCounts(nil)) != 0 {
		t.Error("empty histogram should yield empty dist")
	}
	if len(FromCounts(map[int]int64{31: 0})) != 0 {
		t.Error("all-zero histogram should yield empty dist")
	}
}

func TestSendProbabilitiesSymmetric(t *testing.T) {
	// No inflation, identical windows: equal send probabilities.
	gs, ns := Single(31), Single(31)
	pGS, pNS, err := SendProbabilities(gs, ns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pGS-pNS) > 1e-12 {
		t.Errorf("symmetric case: pGS=%v pNS=%v", pGS, pNS)
	}
	ratio, err := SendingRatio(gs, ns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-0.5) > 1e-12 {
		t.Errorf("symmetric ratio = %v, want 0.5", ratio)
	}
}

func TestSendProbabilitiesInflationFavorsGS(t *testing.T) {
	gs, ns := Single(31), Single(31)
	prev := 0.5
	for _, v := range []int{1, 5, 10, 20, 28, 32} {
		ratio, err := SendingRatio(gs, ns, v)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < prev {
			t.Errorf("ratio decreased at v=%d: %v < %v", v, ratio, prev)
		}
		prev = ratio
	}
	// With v beyond CWmin+1, NS can never win: ratio → 1.
	ratio, _ := SendingRatio(gs, ns, 33)
	if ratio != 1 {
		t.Errorf("v=33 over CW 31: ratio = %v, want 1 (starvation)", ratio)
	}
}

func TestSendProbabilitiesBiggerNSWindowHurtsNS(t *testing.T) {
	// As NS's CW distribution shifts up (more collisions), GS's share
	// grows even at fixed v.
	gs := Single(31)
	r1, err := SendingRatio(gs, Single(31), 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SendingRatio(gs, CWDist{{31, 0.3}, {255, 0.4}, {1023, 0.3}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r1 {
		t.Errorf("backed-off NS should lose share: %v vs %v", r2, r1)
	}
}

func TestSendProbabilitiesErrors(t *testing.T) {
	for name, d := range invalidDists {
		if _, _, err := SendProbabilities(d, Single(31), 0); err == nil {
			t.Errorf("%s GS dist accepted", name)
		}
		if _, err := SendingRatio(Single(31), d, 0); err == nil {
			t.Errorf("%s NS dist accepted", name)
		}
	}
}

func TestTableIIIValues(t *testing.T) {
	rows := TableIII()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check against the paper (within 8%; see phys tests for the one
	// anomalous published cell).
	want := []struct{ ack, rts, tack, tdata float64 }{
		{3.799e-4, 4.399e-4, 1.119e-3, 1.130e-2},
		{7.519e-3, 8.762e-3, 2.235e-2, 2.033e-1},
		{1.121e-2, 1.398e-2, 3.521e-2, 3.048e-1},
		{1.658e-2, 1.918e-2, 4.810e-2, 3.934e-1},
		{2.995e-2, 3.460e-2, 8.574e-2, 5.971e-1},
	}
	approx := func(got, w float64) bool { return math.Abs(got-w)/w < 0.08 }
	for i, r := range rows {
		if !approx(r.ACKCTS, want[i].ack) || !approx(r.RTS, want[i].rts) ||
			!approx(r.TCPACK, want[i].tack) || !approx(r.TCPData, want[i].tdata) {
			t.Errorf("row %d = %+v, want ≈ %+v", i, r, want[i])
		}
	}
}

func TestFEREdges(t *testing.T) {
	if FER(0, 100) != 0 || FER(-1, 100) != 0 || FER(0.5, 0) != 0 {
		t.Error("degenerate FER not zero")
	}
	if FER(1, 10) != 1 || FER(2, 10) != 1 {
		t.Error("certain corruption not one")
	}
}

func TestAddrPreservationMatchesTableI80211B(t *testing.T) {
	// 802.11b: ~2% frame corruption on ~1100-byte frames → per-byte
	// p ≈ 1.9e-5. Table I: 98.8% dst preserved, 94.9% src given dst.
	dst, src := AddrPreservation(1.9e-5, 1100)
	if dst < 0.98 {
		t.Errorf("dst preservation = %v, want ≥ 0.98 (Table I: 0.988)", dst)
	}
	if src < 0.98 {
		// Under memoryless errors src|dst is even higher than measured;
		// the measured 94.9% includes burstiness the uniform model lacks.
		t.Errorf("src|dst preservation = %v", src)
	}
}

func TestAddrPreservationEdges(t *testing.T) {
	d, s := AddrPreservation(0, 1000)
	if d != 1 || s != 1 {
		t.Error("zero error rate should preserve everything")
	}
	d, s = AddrPreservation(0.5, 10)
	if d != 1 || s != 1 {
		t.Error("tiny frame should short-circuit")
	}
}

// Property: send probabilities are valid probabilities and the ratio is
// monotone in v.
func TestPropertySendProbabilityBounds(t *testing.T) {
	f := func(vRaw uint8, cwSel uint8) bool {
		v := int(vRaw % 64)
		cwNS := []int{31, 63, 255, 1023}[cwSel%4]
		pGS, pNS, err := SendProbabilities(Single(31), Single(cwNS), v)
		if err != nil {
			return false
		}
		return pGS >= 0 && pGS <= 1+1e-9 && pNS >= 0 && pNS <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FER is monotone in BER and units.
func TestPropertyFERMonotoneAnalytic(t *testing.T) {
	f := func(b1Raw, b2Raw uint16, u1Raw, u2Raw uint8) bool {
		b1 := float64(b1Raw) / (1 << 20)
		b2 := float64(b2Raw) / (1 << 20)
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		u1, u2 := int(u1Raw), int(u2Raw)
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		return FER(b1, u2) <= FER(b2, u2)+1e-15 && FER(b2, u1) <= FER(b2, u2)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
