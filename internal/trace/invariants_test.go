package trace

import (
	"strings"
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/sim"
)

// feedAll runs a hand-built event stream through a fresh checker.
func feedAll(events []Event) *Checker {
	c := NewChecker(DefaultTiming())
	for i := range events {
		c.Feed(&events[i])
	}
	return c
}

// requireViolation asserts exactly one violation of the named invariant
// and returns it.
func requireViolation(t *testing.T, c *Checker, invariant string) Violation {
	t.Helper()
	if c.Count() != 1 {
		t.Fatalf("violations = %d, want 1: %v", c.Count(), c.Violations())
	}
	v := c.Violations()[0]
	if v.Invariant != invariant {
		t.Fatalf("invariant = %s, want %s", v.Invariant, invariant)
	}
	return v
}

const us = sim.Microsecond

// TestInvariantTxWhileNAVBlocked: a fake MAC that wins contention while
// its own NAV still holds the medium must be caught, and the violation
// must cite both the transmission and the NAV update it ignored. Station
// ids a trace file may carry outside the dense per-station table
// (negative, or beyond maxDenseStation) are tracked the same way.
func TestInvariantTxWhileNAVBlocked(t *testing.T) {
	for _, sta := range []mac.NodeID{1, -3, maxDenseStation + 5} {
		navSet := Event{Kind: KindNAVUpdate, At: 100 * us, Station: sta, Until: 10000 * us}
		rogue := Event{Kind: KindTxContend, At: 5000 * us, Station: sta,
			Frame: FrameInfo{Type: mac.FrameRTS, Src: sta, Dst: 2}}
		c := feedAll([]Event{navSet, rogue})

		v := requireViolation(t, c, InvNAV)
		if v.Station != sta || v.At != 5000*us {
			t.Errorf("violation at sta=%d t=%v, want sta=%d t=5ms", v.Station, v.At, sta)
		}
		if len(v.Evidence) != 2 || v.Evidence[0].Kind != KindTxContend || v.Evidence[1].Kind != KindNAVUpdate {
			t.Errorf("evidence = %v, want [TX-CONTEND, NAV-SET]", v.Evidence)
		}
		if !strings.Contains(v.String(), "NAV holds until 10.000ms") {
			t.Errorf("violation text missing NAV deadline:\n%s", v)
		}
	}
}

// TestInvariantDIFSSpacing: transmitting 30µs after the medium went idle
// violates the DIFS=50µs wait.
func TestInvariantDIFSSpacing(t *testing.T) {
	c := feedAll([]Event{
		{Kind: KindBusyStart, At: 500 * us, Station: 1},
		{Kind: KindBusyEnd, At: 1000 * us, Station: 1},
		{Kind: KindTxContend, At: 1030 * us, Station: 1,
			Frame: FrameInfo{Type: mac.FrameData, Src: 1, Dst: 2}},
	})
	v := requireViolation(t, c, InvIFS)
	if !strings.Contains(v.Detail, "30.0µs") || !strings.Contains(v.Detail, "DIFS") {
		t.Errorf("detail = %q, want the 30µs gap against DIFS", v.Detail)
	}
}

// TestInvariantEIFSAfterCorruption: after a corrupted reception the wait
// stretches to EIFS; clearing plain DIFS is not enough, and the violation
// must cite the corrupted frame that raised the bar.
func TestInvariantEIFSAfterCorruption(t *testing.T) {
	corrupt := Event{Kind: KindCorrupt, At: 1000 * us, Station: 1,
		Frame: FrameInfo{Type: mac.FrameData, Src: 3, Dst: 4}, RSSIDBm: -88}
	c := feedAll([]Event{
		{Kind: KindBusyStart, At: 900 * us, Station: 1},
		corrupt,
		{Kind: KindBusyEnd, At: 1000 * us, Station: 1},
		// 60µs clears DIFS (50µs) but not EIFS (364µs for 802.11b).
		{Kind: KindTxContend, At: 1060 * us, Station: 1,
			Frame: FrameInfo{Type: mac.FrameData, Src: 1, Dst: 2}},
	})
	v := requireViolation(t, c, InvIFS)
	if !strings.Contains(v.Detail, "EIFS") {
		t.Errorf("detail = %q, want an EIFS citation", v.Detail)
	}
	found := false
	for _, e := range v.Evidence {
		if e.Kind == KindCorrupt {
			found = true
		}
	}
	if !found {
		t.Errorf("evidence %v does not cite the corrupted reception", v.Evidence)
	}
}

// TestInvariantBusyMedium: a contention TX while the reconstructed medium
// is still busy cites the event that began the busy period.
func TestInvariantBusyMedium(t *testing.T) {
	c := feedAll([]Event{
		{Kind: KindBusyStart, At: 500 * us, Station: 1},
		{Kind: KindTxContend, At: 700 * us, Station: 1,
			Frame: FrameInfo{Type: mac.FrameRTS, Src: 1, Dst: 2}},
	})
	v := requireViolation(t, c, InvIFS)
	if !strings.Contains(v.Detail, "busy medium") {
		t.Errorf("detail = %q, want a busy-medium citation", v.Detail)
	}
	if len(v.Evidence) != 2 || v.Evidence[1].Kind != KindBusyStart {
		t.Errorf("evidence = %v, want the BUSY-BEG onset cited", v.Evidence)
	}
}

// TestInvariantBackoffWrongExpiry: a countdown of 5 slots from t must
// expire at t+5·slot; a fake MAC expiring two slots early is caught.
func TestInvariantBackoffWrongExpiry(t *testing.T) {
	c := feedAll([]Event{
		{Kind: KindBackoffResume, At: 1000 * us, Station: 1, Slots: 5},
		{Kind: KindBackoffExpire, At: 1060 * us, Station: 1}, // want 1100µs
	})
	v := requireViolation(t, c, InvBackoff)
	if !strings.Contains(v.Detail, "must expire at 1.100ms") {
		t.Errorf("detail = %q, want the correct expiry time", v.Detail)
	}
}

// TestInvariantBackoffThroughBusy: the countdown must freeze on a busy
// onset; expiring past one is the classic backoff cheat.
func TestInvariantBackoffThroughBusy(t *testing.T) {
	busy := Event{Kind: KindBusyStart, At: 1020 * us, Station: 1}
	c := feedAll([]Event{
		{Kind: KindBackoffResume, At: 1000 * us, Station: 1, Slots: 5},
		busy,
		{Kind: KindBackoffExpire, At: 1100 * us, Station: 1},
	})
	v := requireViolation(t, c, InvBackoff)
	if !strings.Contains(v.Detail, "busy onset at 1.020ms") {
		t.Errorf("detail = %q, want the busy onset cited", v.Detail)
	}
	found := false
	for _, e := range v.Evidence {
		if e.Kind == KindBusyStart && e.At == busy.At {
			found = true
		}
	}
	if !found {
		t.Errorf("evidence %v does not cite the busy onset", v.Evidence)
	}
}

// TestInvariantFreezeOverconsumes: a freeze that claims more consumed
// slots than idle slots elapsed is caught.
func TestInvariantFreezeOverconsumes(t *testing.T) {
	c := feedAll([]Event{
		{Kind: KindBackoffResume, At: 1000 * us, Station: 1, Slots: 5},
		// 40µs = 2 idle slots elapsed, yet 4 slots were consumed.
		{Kind: KindBackoffFreeze, At: 1040 * us, Station: 1, Slots: 1},
	})
	v := requireViolation(t, c, InvBackoff)
	if !strings.Contains(v.Detail, "consumed 4 slots but only 2 idle slots") {
		t.Errorf("detail = %q", v.Detail)
	}
}

// TestInvariantSIFSWrongOffset: a response 30µs after the reception it
// answers (SIFS is 10µs) is caught.
func TestInvariantSIFSWrongOffset(t *testing.T) {
	c := feedAll([]Event{
		{Kind: KindDecode, At: 1000 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameData, Src: 1, Dst: 2}, RSSIDBm: -50},
		{Kind: KindTxRespond, At: 1030 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameACK, Src: 2, Dst: 1}},
	})
	v := requireViolation(t, c, InvSIFS)
	if !strings.Contains(v.Detail, "nearest reception ended 30000ns before") {
		t.Errorf("detail = %q, want the 30µs offset", v.Detail)
	}
}

// TestInvariantSIFSOverlappedRxIsClean pins the hidden-terminal edge: an
// overlapped arrival that ends between the answered frame and its ACK
// does not reset the response clock, so an ACK exactly SIFS after the
// frame it answers is compliant even though it is not SIFS after the
// *latest* reception.
func TestInvariantSIFSOverlappedRxIsClean(t *testing.T) {
	c := feedAll([]Event{
		// The stream opens before the answered reception: a response to
		// one ending at the stream's first instant goes unchecked.
		{Kind: KindBusyStart, At: 700 * us, Station: 2},
		{Kind: KindDecode, At: 1000 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameData, Src: 1, Dst: 2}, RSSIDBm: -50},
		// A hidden sender's frame ends 3µs later, corrupted.
		{Kind: KindCorrupt, At: 1003 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameData, Src: 3, Dst: 4}, RSSIDBm: -60},
		{Kind: KindTxRespond, At: 1010 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameACK, Src: 2, Dst: 1}},
	})
	if c.Count() != 0 {
		t.Fatalf("violations = %v, want none: the ACK is exactly SIFS after the frame it answers", c.Violations())
	}
}

// TestInvariantSIFSWrongFrame: a CTS exactly SIFS after a reception that
// was not an RTS addressed to this station is caught with the receptions
// cited.
func TestInvariantSIFSWrongFrame(t *testing.T) {
	c := feedAll([]Event{
		// The stream opens before the answered reception: a response to
		// one ending at the stream's first instant goes unchecked.
		{Kind: KindBusyStart, At: 700 * us, Station: 2},
		{Kind: KindDecode, At: 1000 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameData, Src: 1, Dst: 2}, RSSIDBm: -50},
		{Kind: KindTxRespond, At: 1010 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameCTS, Src: 2, Dst: 1}},
	})
	v := requireViolation(t, c, InvSIFS)
	if !strings.Contains(v.Detail, "without a decoded RTS") {
		t.Errorf("detail = %q, want the missing-RTS citation", v.Detail)
	}
	if len(v.Evidence) < 2 {
		t.Errorf("evidence = %v, want the response plus the receptions", v.Evidence)
	}
}

// TestCompliantStreamIsClean: a protocol-faithful exchange produces no
// violations.
func TestCompliantStreamIsClean(t *testing.T) {
	c := feedAll([]Event{
		// An RTS arrives for station 2; CTS answers at exactly SIFS.
		{Kind: KindBusyStart, At: 1000 * us, Station: 2},
		{Kind: KindDecode, At: 1300 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameRTS, Src: 1, Dst: 2}, RSSIDBm: -50},
		{Kind: KindBusyEnd, At: 1300 * us, Station: 2},
		{Kind: KindTxRespond, At: 1310 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameCTS, Src: 2, Dst: 1}},
		// Later, a contention TX after DIFS plus a correctly-paced backoff.
		{Kind: KindBackoffResume, At: 2000 * us, Station: 2, Slots: 3},
		{Kind: KindBackoffExpire, At: 2060 * us, Station: 2},
		{Kind: KindTxContend, At: 2060 * us, Station: 2,
			Frame: FrameInfo{Type: mac.FrameData, Src: 2, Dst: 1}},
	})
	if c.Count() != 0 {
		t.Fatalf("compliant stream flagged: %v", c.Violations())
	}
}

// TestTruncatedStreamSkipsPreHorizonChecks: a ring-truncated stream that
// opens mid-run must not flag a response whose reception was evicted —
// also when that reception ended exactly at the first retained event,
// whose timestamp it shares with events the ring kept.
func TestTruncatedStreamSkipsPreHorizonChecks(t *testing.T) {
	for name, first := range map[string]Event{
		"reception before the first event": {Kind: KindBusyEnd, At: 5000 * us, Station: 2},
		"reception at the first event":     {Kind: KindBusyEnd, At: 4995 * us, Station: 3},
	} {
		c := feedAll([]Event{
			first,
			// The DATA this ACK answers ended at 4995µs; unverifiable.
			{Kind: KindTxRespond, At: 5005 * us, Station: 2,
				Frame: FrameInfo{Type: mac.FrameACK, Src: 2, Dst: 1}},
		})
		if c.Count() != 0 {
			t.Errorf("%s: truncated stream flagged: %v", name, c.Violations())
		}
	}
}

// TestViolationRetentionCap: the checker keeps counting past the cap but
// retains at most maxViolations entries.
func TestViolationRetentionCap(t *testing.T) {
	c := NewChecker(DefaultTiming())
	nav := Event{Kind: KindNAVUpdate, At: 0, Station: 1, Until: sim.Second}
	c.Feed(&nav)
	for i := 0; i < maxViolations+20; i++ {
		c.Feed(&Event{Kind: KindTxContend, At: sim.Time(i+1) * us, Station: 1,
			Frame: FrameInfo{Type: mac.FrameRTS, Src: 1, Dst: 2}})
	}
	if c.Count() != maxViolations+20 {
		t.Errorf("count = %d, want %d", c.Count(), maxViolations+20)
	}
	if len(c.Violations()) != maxViolations {
		t.Errorf("retained = %d, want %d", len(c.Violations()), maxViolations)
	}
}
