package greedy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

func TestFrameSetContains(t *testing.T) {
	tests := []struct {
		name string
		set  FrameSet
		ft   mac.FrameType
		want bool
	}{
		{"cts in CTSOnly", CTSOnly, mac.FrameCTS, true},
		{"ack not in CTSOnly", CTSOnly, mac.FrameACK, false},
		{"rts in RTSAndCTS", RTSAndCTS, mac.FrameRTS, true},
		{"data in AllFrames", AllFrames, mac.FrameData, true},
		{"unknown type", AllFrames, mac.FrameType(99), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.set.Contains(tt.ft); got != tt.want {
				t.Errorf("Contains(%v) = %v", tt.ft, got)
			}
		})
	}
}

// TestFrameSetRoundTrip: every one of the 16 frame sets prints and
// parses back to itself.
func TestFrameSetRoundTrip(t *testing.T) {
	for bits := 0; bits < 16; bits++ {
		set := FrameSet{RTS: bits&1 != 0, CTS: bits&2 != 0, Data: bits&4 != 0, ACK: bits&8 != 0}
		got, err := ParseFrameSet(set.String())
		if err != nil || got != set {
			t.Errorf("ParseFrameSet(%q) = %+v, %v; want %+v", set.String(), got, err, set)
		}
	}
}

func TestParseFrameSet(t *testing.T) {
	tests := []struct {
		in      string
		want    FrameSet
		wantErr bool
	}{
		{"cts", CTSOnly, false},
		{"ack", ACKOnly, false},
		{"cts+ack", CTSAndACK, false},
		{"rts+cts", RTSAndCTS, false},
		{"all", AllFrames, false},
		{"rts", FrameSet{RTS: true}, false},
		{"ack+cts", CTSAndACK, false},
		{"rts+cts+data+ack", AllFrames, false},
		{"", FrameSet{}, false},
		{"cts+cts", FrameSet{}, true},
		{"cts+", FrameSet{}, true},
		{"datagram", FrameSet{}, true},
		{"all+cts", FrameSet{}, true},
	}
	for _, tt := range tests {
		got, err := ParseFrameSet(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("ParseFrameSet(%q) = %+v, %v; want %+v (error %v)", tt.in, got, err, tt.want, tt.wantErr)
		}
	}
}

func TestNAVInflationTargetsFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewNAVInflation(rng, CTSOnly, 10*sim.Millisecond, 100)
	normal := 300 * sim.Microsecond
	if got := p.OutgoingDuration(mac.FrameCTS, normal); got != normal+10*sim.Millisecond {
		t.Errorf("CTS duration = %v", got)
	}
	if got := p.OutgoingDuration(mac.FrameACK, normal); got != normal {
		t.Errorf("ACK duration inflated by a CTS-only policy: %v", got)
	}
	if p.Inflated != 1 {
		t.Errorf("Inflated = %d, want 1", p.Inflated)
	}
}

func TestNAVInflationGreedyPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewNAVInflation(rng, CTSOnly, sim.Millisecond, 50)
	const n = 20000
	inflated := 0
	for i := 0; i < n; i++ {
		if p.OutgoingDuration(mac.FrameCTS, 0) > 0 {
			inflated++
		}
	}
	frac := float64(inflated) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("GP=50 inflated %.3f of frames, want ≈0.5", frac)
	}
}

func TestNAVInflationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative inflation accepted")
		}
	}()
	NewNAVInflation(rand.New(rand.NewSource(1)), CTSOnly, -1, 100)
}

func TestACKSpooferVictimFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewACKSpoofer(rng, 100, 4)
	if p.SpoofSniffedData(&mac.Frame{Type: mac.FrameData, Src: 1, Dst: 9}) {
		t.Error("spoofed for a non-victim")
	}
	if !p.SpoofSniffedData(&mac.Frame{Type: mac.FrameData, Src: 1, Dst: 4}) {
		t.Error("did not spoof for the victim")
	}
	if p.Sniffed != 1 || p.Spoofs != 1 {
		t.Errorf("counters sniffed=%d spoofs=%d", p.Sniffed, p.Spoofs)
	}
}

func TestACKSpooferAllVictims(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewACKSpoofer(rng, 100)
	for dst := mac.NodeID(2); dst < 10; dst++ {
		if !p.SpoofSniffedData(&mac.Frame{Type: mac.FrameData, Src: 1, Dst: dst}) {
			t.Errorf("victimless spoofer skipped dst %d", dst)
		}
	}
}

func TestFakeACKerGP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewFakeACKer(rng, 0)
	if p.AckCorrupted(1, phys.FrameCorruption{Corrupted: true}) {
		t.Error("GP=0 faked an ACK")
	}
	p2 := NewFakeACKer(rng, 100)
	if !p2.AckCorrupted(1, phys.FrameCorruption{Corrupted: true}) {
		t.Error("GP=100 did not fake an ACK")
	}
	if p2.Opportunities != 1 || p2.Faked != 1 {
		t.Errorf("counters = %d/%d", p2.Opportunities, p2.Faked)
	}
}

func TestCombinedDelegation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := &Combined{
		NAV:   NewNAVInflation(rng, ACKOnly, sim.Millisecond, 100),
		Spoof: NewACKSpoofer(rng, 100),
		Fake:  NewFakeACKer(rng, 100),
	}
	if got := c.OutgoingDuration(mac.FrameACK, 0); got != sim.Millisecond {
		t.Errorf("combined ACK duration = %v", got)
	}
	if got := c.OutgoingDuration(mac.FrameCTS, 7); got != 7 {
		t.Errorf("combined CTS duration = %v, want unchanged", got)
	}
	if !c.SpoofSniffedData(&mac.Frame{Type: mac.FrameData, Src: 1, Dst: 2}) {
		t.Error("combined did not spoof")
	}
	if !c.AckCorrupted(1, phys.FrameCorruption{Corrupted: true}) {
		t.Error("combined did not fake")
	}
}

func TestCombinedEmptyIsNormal(t *testing.T) {
	c := &Combined{}
	if got := c.OutgoingDuration(mac.FrameCTS, 5); got != 5 {
		t.Error("empty Combined changed a duration")
	}
	if c.SpoofSniffedData(&mac.Frame{}) || c.AckCorrupted(1, phys.FrameCorruption{}) {
		t.Error("empty Combined misbehaved")
	}
}

// Property: GP fraction of greedy actions converges to gp/100 for any GP.
func TestPropertyGPFraction(t *testing.T) {
	f := func(gpRaw uint8) bool {
		gp := float64(gpRaw % 101)
		rng := rand.New(rand.NewSource(int64(gpRaw) + 7))
		p := NewFakeACKer(rng, gp)
		const n = 5000
		hits := 0
		for i := 0; i < n; i++ {
			if p.AckCorrupted(1, phys.FrameCorruption{Corrupted: true}) {
				hits++
			}
		}
		frac := float64(hits) / n * 100
		return math.Abs(frac-gp) < 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: inflation never decreases a duration and equals normal+extra
// when applied.
func TestPropertyInflationMonotone(t *testing.T) {
	f := func(extraRaw uint16, normalRaw uint16) bool {
		rng := rand.New(rand.NewSource(11))
		extra := sim.Time(extraRaw) * sim.Microsecond
		normal := sim.Time(normalRaw) * sim.Microsecond
		p := NewNAVInflation(rng, AllFrames, extra, 100)
		got := p.OutgoingDuration(mac.FrameCTS, normal)
		return got == normal+extra && got >= normal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
