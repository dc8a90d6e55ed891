package trace

import (
	"fmt"
	"strings"

	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// Timing is the subset of band parameters the invariant checker needs; it
// travels in the JSONL header so a trace file can be re-checked offline.
type Timing struct {
	Slot  sim.Time `json:"slot"`
	SIFS  sim.Time `json:"sifs"`
	DIFS  sim.Time `json:"difs"`
	EIFS  sim.Time `json:"eifs"`
	CWMin int      `json:"cwmin"`
	CWMax int      `json:"cwmax"`
}

// TimingFromParams extracts the checker-relevant timing from a band.
func TimingFromParams(p phys.Params) Timing {
	return Timing{
		Slot:  p.SlotTime,
		SIFS:  p.SIFS,
		DIFS:  p.DIFS(),
		EIFS:  p.EIFS(),
		CWMin: p.CWMin,
		CWMax: p.CWMax,
	}
}

// DefaultTiming is the 802.11b timing, the paper's default band.
func DefaultTiming() Timing { return TimingFromParams(phys.Params80211B()) }

// Invariant names reported in violations.
const (
	// InvNAV: a station must not win contention while its virtual carrier
	// sense still holds the medium busy (SIFS responses are exempt: they
	// own the medium by protocol timing).
	InvNAV = "tx-while-nav-blocked"
	// InvIFS: a contention transmission requires the reconstructed medium
	// (physical carrier, own transmissions, NAV) to have been idle for at
	// least DIFS — or EIFS after a corrupted reception.
	InvIFS = "ifs-spacing"
	// InvBackoff: the backoff counter decrements only during idle slots,
	// never faster than the slot clock, and an expiry consumes exactly the
	// drawn slot count.
	InvBackoff = "backoff-idle-decrement"
	// InvSIFS: every SIFS response (ACK, CTS, the post-CTS data frame)
	// follows the reception it answers by exactly SIFS.
	InvSIFS = "sifs-response-spacing"
)

// Violation is one invariant breach, citing the offending event and the
// establishing context (e.g. the NAV update a transmission ignored).
type Violation struct {
	Invariant string
	At        sim.Time
	Station   mac.NodeID
	Detail    string
	Evidence  []Event
}

// String renders the violation with its event citations.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s sta=%d at %v: %s", v.Invariant, v.Station, v.At, v.Detail)
	for _, e := range v.Evidence {
		b.WriteString("\n    | ")
		b.WriteString(e.String())
	}
	return b.String()
}

// maxViolations bounds how many violations a checker retains; the count
// keeps running past the cap.
const maxViolations = 100

// staState reconstructs one station's medium view from the event stream.
type staState struct {
	id mac.NodeID

	physBusy bool
	physEnd  sim.Time // last observed physical-busy end

	txUntil sim.Time
	txEvent Event

	navUntil sim.Time
	navEvent Event

	// Reconstructed medium-busy (phys OR own TX OR NAV) state machine.
	busy      bool
	idleSince sim.Time // valid when !busy: when the medium last went idle
	busyEvent Event    // event that began the current busy period

	eifs      bool
	eifsEvent Event

	// Receptions (any outcome) that ended within the last SIFS, newest
	// last, for SIFS matching. Overlapped hidden-terminal arrivals can
	// end between the answered frame and its response, so the checker
	// must remember every recent reception, not just the latest.
	rx []Event

	// Backoff countdown in progress.
	counting bool
	cdStart  sim.Time
	cdSlots  int
	cdEvent  Event
	// First medium-busy onset observed inside the countdown (zero time
	// means none). A countdown that keeps running past it is a violation.
	cdBusyAt sim.Time
	cdBusyEv Event
}

// Checker verifies 802.11 access invariants over one world's unified
// trace stream. Feed events in scheduler order (a Collector's recorder
// delivers exactly that); the checker needs MAC-probe events, so
// channel-only traces pass vacuously.
type Checker struct {
	timing Timing
	// sta holds per-station state indexed by station id, grown on demand;
	// ids outside [0, maxDenseStation) (only ever seen in hand-written
	// trace files) live in staOther.
	sta        []*staState
	staOther   map[mac.NodeID]*staState
	violations []Violation
	count      int

	// begin is the first fed event's timestamp. A ring-truncated stream
	// starts mid-run, and the ring may have evicted some of the events
	// that share begin's timestamp, so checks whose supporting evidence
	// lies at or before begin are skipped: they would otherwise report
	// spurious violations.
	begin   sim.Time
	seenAny bool
}

// NewChecker builds a checker for a world running under the given timing.
func NewChecker(t Timing) *Checker {
	return &Checker{timing: t, staOther: make(map[mac.NodeID]*staState)}
}

// SetTiming replaces the timing; call before feeding events.
func (c *Checker) SetTiming(t Timing) { c.timing = t }

// Violations returns the retained violations (at most maxViolations).
func (c *Checker) Violations() []Violation { return c.violations }

// Count reports the total number of violations, including any past the
// retention cap.
func (c *Checker) Count() int { return c.count }

func (c *Checker) report(v Violation) {
	c.count++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
}

// maxDenseStation bounds the dense per-station table, so a trace file
// naming a huge station id cannot make the checker allocate a table that
// large.
const maxDenseStation = 1 << 16

func (c *Checker) state(id mac.NodeID) *staState {
	if i := int(id); i >= 0 && i < maxDenseStation {
		if i >= len(c.sta) {
			c.sta = append(c.sta, make([]*staState, i+1-len(c.sta))...)
		}
		if c.sta[i] == nil {
			c.sta[i] = &staState{id: id}
		}
		return c.sta[i]
	}
	s, ok := c.staOther[id]
	if !ok {
		s = &staState{id: id}
		c.staOther[id] = s
	}
	return s
}

func maxTime(a, b, d sim.Time) sim.Time {
	if b > a {
		a = b
	}
	if d > a {
		a = d
	}
	return a
}

// advance lazily retires tx/NAV busy components that expired before t.
func (s *staState) advance(t sim.Time) {
	if s.busy && !s.physBusy && t >= s.txUntil && t >= s.navUntil {
		s.busy = false
		s.idleSince = maxTime(s.physEnd, s.txUntil, s.navUntil)
	}
}

// markBusy notes a medium-busy onset caused by event e at time t.
func (s *staState) markBusy(t sim.Time, e *Event) {
	if !s.busy {
		s.busy = true
		s.busyEvent = *e
	}
	if s.counting && s.cdBusyAt == 0 {
		s.cdBusyAt = t
		s.cdBusyEv = *e
	}
}

// Feed consumes the next event in stream order. The checker reads *e
// only during the call and copies what it keeps as evidence, so e may
// point into storage the caller reuses (a Recorder passes its ring
// slot).
func (c *Checker) Feed(e *Event) {
	if !c.seenAny {
		c.seenAny = true
		c.begin = e.At
	}
	s := c.state(e.Station)
	t := e.At
	s.advance(t)

	switch e.Kind {
	case KindBusyStart:
		s.markBusy(t, e)
		s.physBusy = true

	case KindBusyEnd:
		s.physBusy = false
		s.physEnd = t
		s.advance(t)

	case KindTransmit:
		s.markBusy(t, e)
		if until := t + e.Frame.Airtime; until > s.txUntil {
			s.txUntil = until
			s.txEvent = *e
		}

	case KindNAVUpdate:
		if e.Until > s.navUntil {
			s.markBusy(t, e)
			s.navUntil = e.Until
			s.navEvent = *e
		}

	case KindNAVExpire:
		s.advance(t)

	case KindDecode:
		s.eifs = false
		s.noteRx(e, c.timing.SIFS)

	case KindCorrupt:
		s.eifs = true
		s.eifsEvent = *e
		s.noteRx(e, c.timing.SIFS)

	case KindBackoffResume:
		s.counting = true
		s.cdStart = t
		s.cdSlots = e.Slots
		s.cdEvent = *e
		s.cdBusyAt = 0

	case KindBackoffFreeze:
		if s.counting {
			c.checkFreeze(s, e)
		}
		s.counting = false

	case KindBackoffExpire:
		if s.counting {
			c.checkExpire(s, e)
		}
		s.counting = false

	case KindTxContend:
		c.checkContend(s, e)

	case KindTxRespond:
		c.checkRespond(s, e)
	}
}

// noteRx records a reception end and prunes ones too old to be answered
// by a SIFS response (the window keeps the slice a handful long even
// under heavy hidden-terminal overlap).
func (s *staState) noteRx(e *Event, sifs sim.Time) {
	keep := 0
	for i := range s.rx {
		if s.rx[i].At+sifs >= e.At {
			if keep != i {
				s.rx[keep] = s.rx[i]
			}
			keep++
		}
	}
	s.rx = append(s.rx[:keep], *e)
}

func (c *Checker) checkContend(s *staState, e *Event) {
	t := e.At
	if t < s.navUntil {
		c.report(Violation{
			Invariant: InvNAV, At: t, Station: s.id,
			Detail:   fmt.Sprintf("contention TX of %s while NAV holds until %v", e.Frame.Type, s.navUntil),
			Evidence: []Event{*e, s.navEvent},
		})
		return
	}
	if s.busy {
		c.report(Violation{
			Invariant: InvIFS, At: t, Station: s.id,
			Detail:   fmt.Sprintf("contention TX of %s on a busy medium", e.Frame.Type),
			Evidence: []Event{*e, s.busyEvent},
		})
		return
	}
	ifs, reason := c.timing.DIFS, "DIFS"
	if s.eifs {
		ifs, reason = c.timing.EIFS, "EIFS"
	}
	if t-s.idleSince < ifs {
		evidence := []Event{*e}
		if s.eifs {
			evidence = append(evidence, s.eifsEvent)
		}
		c.report(Violation{
			Invariant: InvIFS, At: t, Station: s.id,
			Detail: fmt.Sprintf("contention TX of %s only %v after the medium went idle (need %s=%v)",
				e.Frame.Type, t-s.idleSince, reason, ifs),
			Evidence: evidence,
		})
	}
}

func (c *Checker) checkRespond(s *staState, e *Event) {
	t := e.At
	want := t - c.timing.SIFS
	if want <= c.begin {
		// The reception this response answers ended no later than the
		// stream's first event, so ring truncation may have evicted it;
		// nothing to check against.
		return
	}
	// A response answers the reception that scheduled it, which ended
	// exactly SIFS ago. Later overlapped arrivals (hidden terminals) may
	// have ended in between; they do not reset the response clock, so
	// match against every reception still inside the SIFS window.
	answered := false
	for i := range s.rx {
		if s.rx[i].At == want {
			answered = true
			break
		}
	}
	if !answered {
		detail := fmt.Sprintf("%s response with no reception ending SIFS=%v earlier (at %v)",
			e.Frame.Type, c.timing.SIFS, want)
		evidence := []Event{*e}
		if n := len(s.rx); n > 0 {
			last := &s.rx[n-1]
			detail += fmt.Sprintf("; nearest reception ended %dns before the response", int64(t-last.At))
			evidence = append(evidence, *last)
		}
		c.report(Violation{
			Invariant: InvSIFS, At: t, Station: s.id,
			Detail:   detail,
			Evidence: evidence,
		})
		return
	}
	// The response slot timing is right; responses answering a decoded
	// frame must also answer the right frame type.
	var need mac.FrameType
	switch e.Frame.Type {
	case mac.FrameCTS:
		need = mac.FrameRTS
	case mac.FrameData:
		need = mac.FrameCTS
	default:
		return // ACKs answer any reception outcome (fake ACKs answer corruption)
	}
	for i := range s.rx {
		if rx := &s.rx[i]; rx.At == want && rx.Kind == KindDecode && rx.Frame.Type == need && rx.Frame.Dst == s.id {
			return
		}
	}
	evidence := []Event{*e}
	for _, rx := range s.rx {
		if rx.At == want {
			evidence = append(evidence, rx)
		}
	}
	c.report(Violation{
		Invariant: InvSIFS, At: t, Station: s.id,
		Detail:   fmt.Sprintf("%s response without a decoded %s addressed to this station at %v", e.Frame.Type, need, want),
		Evidence: evidence,
	})
}

func (c *Checker) checkFreeze(s *staState, e *Event) {
	t := e.At
	if s.cdBusyAt != 0 && s.cdBusyAt < t {
		c.report(Violation{
			Invariant: InvBackoff, At: t, Station: s.id,
			Detail: fmt.Sprintf("countdown ran until %v through a medium-busy onset at %v",
				t, s.cdBusyAt),
			Evidence: []Event{*e, s.cdEvent, s.cdBusyEv},
		})
		return
	}
	consumed := s.cdSlots - e.Slots
	elapsed := int((t - s.cdStart) / c.timing.Slot)
	if consumed < 0 || consumed > elapsed {
		c.report(Violation{
			Invariant: InvBackoff, At: t, Station: s.id,
			Detail: fmt.Sprintf("freeze consumed %d slots but only %d idle slots elapsed since %v",
				consumed, elapsed, s.cdStart),
			Evidence: []Event{*e, s.cdEvent},
		})
	}
}

func (c *Checker) checkExpire(s *staState, e *Event) {
	t := e.At
	if s.cdBusyAt != 0 && s.cdBusyAt < t {
		c.report(Violation{
			Invariant: InvBackoff, At: t, Station: s.id,
			Detail: fmt.Sprintf("countdown expired at %v despite a medium-busy onset at %v",
				t, s.cdBusyAt),
			Evidence: []Event{*e, s.cdEvent, s.cdBusyEv},
		})
		return
	}
	if want := s.cdStart + sim.Time(s.cdSlots)*c.timing.Slot; t != want {
		c.report(Violation{
			Invariant: InvBackoff, At: t, Station: s.id,
			Detail: fmt.Sprintf("countdown of %d slots from %v must expire at %v, not %v",
				s.cdSlots, s.cdStart, want, t),
			Evidence: []Event{*e, s.cdEvent},
		})
	}
}
