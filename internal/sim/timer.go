package sim

// Timer is a restartable one-shot timer. MAC-layer timeouts (CTS timeout,
// ACK timeout, NAV expiry, backoff slots) are all Timers. The zero value
// is unusable; create with NewTimer. What is never stopped or re-armed,
// such as a periodic source's next tick, is cheaper as an event
// scheduled from the one before: it then stays out of the timer heap
// that every re-arm sifts through.
//
// Each timer has an id fixed at NewTimer and, while armed, exactly one
// entry in its scheduler's timer heap. Arming takes the next seq exactly
// as At does: it inserts the entry of a stopped timer and re-keys that of
// an armed one in place. Stop takes the entry out. A re-arm therefore
// leaves nothing behind for dispatch to skip, and the event heap holds
// only fire-and-forget events. The scheduler keeps a timer's id and
// handler for its own lifetime, so create timers when a world is built,
// not per event.
type Timer struct {
	sched *Scheduler
	id    uint32 // index into the scheduler's timerPos and timerFns
}

// NewTimer returns a stopped timer that runs fn each time it expires.
func NewTimer(sched *Scheduler, fn Handler) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil handler")
	}
	id := uint32(len(sched.timerFns))
	sched.timerFns = append(sched.timerFns, fn)
	sched.timerPos = append(sched.timerPos, -1)
	return &Timer{sched: sched, id: id}
}

// Start arms the timer to fire after delay, replacing any pending expiry.
func (t *Timer) Start(delay Time) { t.sched.armTimer(t.id, t.sched.after(delay)) }

// StartAt arms the timer to fire at absolute time when, replacing any
// pending expiry.
func (t *Timer) StartAt(when Time) { t.sched.armTimer(t.id, when) }

// Stop disarms the timer if pending. Safe to call at any time.
func (t *Timer) Stop() {
	if i := t.sched.timerPos[t.id]; i >= 0 {
		t.sched.removeTimer(int(i))
	}
}

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.sched.timerPos[t.id] >= 0 }

// Deadline reports when the timer will fire, or Never if not pending.
func (t *Timer) Deadline() Time {
	if i := t.sched.timerPos[t.id]; i >= 0 {
		return t.sched.timers[i].when
	}
	return Never
}

// armTimer keys timer id's entry to fire at when, inserting the entry
// when the timer is stopped and re-keying it in place when armed.
func (s *Scheduler) armTimer(id uint32, when Time) {
	e := entry{when: when, seq: s.nextSeq(when), id: id}
	i := int(s.timerPos[id])
	switch {
	case i < 0:
		s.pending++
		s.timers = append(s.timers, e)
		s.timerUp(len(s.timers)-1, e)
	case when < s.timers[i].when:
		s.timerUp(i, e)
	default:
		// The new seq is higher than the old, so an equal or later
		// deadline sorts after the entry's old key.
		s.timerDown(i, e)
	}
}

// removeTimer takes the timer heap's entry at index i out: the last entry
// fills the hole and sifts whichever way its key goes.
func (s *Scheduler) removeTimer(i int) {
	n := len(s.timers) - 1
	gone, last := s.timers[i], s.timers[n]
	s.timerPos[gone.id] = -1
	s.pending--
	// Reslicing the field itself writes only its length, so the GC
	// write barrier stays out of the dispatch path.
	s.timers = s.timers[:n]
	switch {
	case i == n:
	case less(last, gone):
		s.timerUp(i, last)
	default:
		s.timerDown(i, last)
	}
}

// fireTimer disarms the earliest timer and runs its handler, which may
// re-arm it. The caller must ensure a timer is armed.
func (s *Scheduler) fireTimer() {
	e := s.timers[0]
	s.removeTimer(0)
	s.now = e.when
	s.executed++
	s.timerFns[e.id]()
}

// timerUp puts e in the timer heap's slot i and sifts it up to its
// position, moving larger parents down into the hole and recording every
// moved entry's new index.
func (s *Scheduler) timerUp(i int, e entry) {
	h := s.timers
	for i > 0 {
		p := (i - 1) / heapArity
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		s.timerPos[h[i].id] = int32(i)
		i = p
	}
	h[i] = e
	s.timerPos[e.id] = int32(i)
}

// timerDown puts e in the timer heap's slot i and sifts it down to its
// position, moving smaller children up into the hole and recording every
// moved entry's new index. A full family of four picks its smallest child
// without branches, as siftDown does.
func (s *Scheduler) timerDown(i int, e entry) {
	h := s.timers
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		var m int
		if first+heapArity <= n {
			c := h[first : first+heapArity : first+heapArity]
			l := b2i(c[1].when < c[0].when) | b2i(c[1].when == c[0].when)&b2i(c[1].seq < c[0].seq)
			r := 2 + (b2i(c[3].when < c[2].when) | b2i(c[3].when == c[2].when)&b2i(c[3].seq < c[2].seq))
			a, b := c[l&3], c[r&3]
			m = first + l + (r-l)*(b2i(b.when < a.when)|b2i(b.when == a.when)&b2i(b.seq < a.seq))
		} else {
			m = first
			for c := first + 1; c < n; c++ {
				if less(h[c], h[m]) {
					m = c
				}
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		s.timerPos[h[i].id] = int32(i)
		i = m
	}
	h[i] = e
	s.timerPos[e.id] = int32(i)
}
