package sim

import (
	"fmt"
	"math/rand"

	"greedy80211/internal/pool"
)

// Handler is an event callback. It runs at the event's scheduled time with
// the Scheduler's clock already advanced to that time.
type Handler func()

// ArgHandler is an event callback taking the argument it was scheduled
// with (see AtCall). Passing a package-level function plus a pointer
// argument schedules with zero allocations, where an equivalent closure
// would allocate per event or per captured object.
type ArgHandler func(arg any)

// event is a scheduled callback, created by At, AtCall, AtCallLane or
// Schedule. Events are fire-and-forget: nothing outside the scheduler
// holds one, and once an event fires its storage returns to the
// scheduler's freelist. What must be cancelled or re-armed is a Timer.
type event struct {
	when  Time
	seq   uint64 // tie-break: FIFO among same-time events
	id    uint32 // slab slot, fixed at chunk allocation (see entry)
	lane  *Lane  // the lane the event is queued in; nil outside a lane
	next  *event // the lane's following event; nil at its tail
	fn    Handler
	argFn ArgHandler // exactly one of fn/argFn is set
	arg   any
}

// key is the event's heap entry.
func (e *event) key() entry { return entry{when: e.when, seq: e.seq, id: e.id} }

// Lane is a FIFO of events, scheduled with AtCallLane, that takes one heap
// slot between them: only the lane's head sits in the scheduler's heap,
// and popping the head puts the lane's next event in its place. An event
// joins a lane only when it is not earlier than the lane's tail, and every
// new event takes a higher seq, so a lane always holds its events in
// (when, seq) order and dispatch order is exactly that of plain AtCall.
// What a lane saves is heap work: a medium transmission schedules one
// begin and one end event per neighbor, nanoseconds apart, and a lane
// turns each full-depth pop of those into a sift that stops near the
// root.
//
// The zero value is an empty lane. A Lane must not be copied while it
// holds events.
type Lane struct {
	tail *event // last queued event; nil when the lane is empty
}

// entry is one slot of the event heap or the timer heap. The ordering
// key (when, seq) is stored inline so sift comparisons stay within the
// heap's own backing array instead of chasing the event, and the event
// (or timer) itself is referenced by its id rather than a pointer: a
// pointer-free entry type means sift swaps issue no GC write barriers and
// the GC never scans the heap slice. Both showed up in profiles (pop was
// ~30% flat, with barrier flushes behind it).
type entry struct {
	when Time
	seq  uint64
	id   uint32
}

// less orders entries by (when, seq): earliest first, FIFO among ties.
func less(a, b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// b2i is 1 for true and 0 for false. The compiler emits it as a flag
// set, not a branch, so a sift can pick the least of a full family of
// four by arithmetic: (when, seq) ordering as 0/1 integers, two pair
// winners, then their winner. A branch there is a coin flip that the CPU
// mispredicts at every level of a deep heap. The pick is written out in
// each sift loop because a helper holding it is too large to inline.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// heapArity is the fan-out of the implicit min-heap. A 4-ary heap is
// shallower than a binary one (fewer cache lines touched per pop) and the
// four-child scan stays within one or two lines of the entry slice.
const heapArity = 4

// eventChunkSize is how many events each slab allocation holds. Event
// pointers must stay stable, so events are allocated in fixed-size chunks
// rather than one growable slice. The size must stay a power of two: an
// event's id decomposes as (slab index << shift) | slot.
// Live events track pending-queue depth (tens in hotspot scenarios), and
// a world is built per seed, so a small slab keeps construction cheap.
const (
	eventChunkSize  = 64
	eventChunkShift = 6
	eventChunkMask  = eventChunkSize - 1
)

// eventSlab is one fixed-size block of event storage.
type eventSlab [eventChunkSize]event

// Scheduler is the discrete-event simulation core: a virtual clock and
// two priority queues, one of fire-and-forget events and one of armed
// timers (see Timer), dispatched together in (when, seq) order. It is
// single-goroutine by design — all of the simulation's concurrency is
// virtual; independent Schedulers may run on concurrent goroutines. A Scheduler also acts as the root of the
// simulation's deterministic randomness (see RNG).
type Scheduler struct {
	now      Time
	heap     []entry // heap events plus the head of every non-empty lane
	pending  int     // queued events, lane members and armed timers included
	seq      uint64
	executed uint64
	seed     int64
	streams  int64
	halted   bool

	// Event storage: fixed-size slabs keep *event stable while the
	// freelist recycles fired events (by id, keeping the freelist
	// pointer-free too), so steady-state scheduling does not allocate.
	slabs  []*eventSlab
	free   []uint32
	chunks int // number of slabs allocated (growth observability)

	// Timer storage: one entry per armed timer in its own heap, keyed by
	// the timer's id (see Timer).
	timers   []entry   // armed timers' heap
	timerPos []int32   // timer id -> index in timers; -1 while disarmed
	timerFns []Handler // timer id -> expiry handler
}

// eventAt resolves a slab id back to its event.
func (s *Scheduler) eventAt(id uint32) *event {
	return &s.slabs[id>>eventChunkShift][id&eventChunkMask]
}

// NewScheduler returns a scheduler with its clock at zero, seeding all RNG
// streams derived via RNG from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Executed reports how many events have fired so far (useful for progress
// accounting and benchmarks).
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending reports the number of events still queued, events waiting in
// lanes and armed timers included.
func (s *Scheduler) Pending() int { return s.pending }

// Stats reports the event slab's occupancy in the same shape the object
// pools use: chunks grown, events queued plus timers armed (live), and
// freelist depth. Every At call and every timer arm takes a seq, so Gets
// equals the lifetime count of schedules and arms.
func (s *Scheduler) Stats() pool.Stats {
	live := s.chunks*eventChunkSize - len(s.free) + len(s.timers)
	return pool.Stats{
		Chunks:    s.chunks,
		ChunkSize: eventChunkSize,
		Live:      live,
		Free:      len(s.free),
		Gets:      s.seq,
		Puts:      s.seq - uint64(live),
	}
}

// RNG returns a new deterministic random stream. Streams are derived from
// the scheduler seed and a counter, so the i-th stream requested is the same
// across runs with the same seed regardless of timing.
func (s *Scheduler) RNG() *rand.Rand {
	s.streams++
	// SplitMix-style mixing keeps streams decorrelated even for small seeds.
	z := uint64(s.seed) + uint64(s.streams)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return NewRand(int64(z))
}

// alloc hands out an event from the freelist, growing the slab by one
// chunk only when every previously allocated event is live.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return s.eventAt(id)
	}
	slab := new(eventSlab)
	base := uint32(len(s.slabs)) << eventChunkShift
	s.slabs = append(s.slabs, slab)
	s.chunks++
	for i := eventChunkSize - 1; i >= 1; i-- {
		slab[i].id = base + uint32(i)
		s.free = append(s.free, base+uint32(i))
	}
	slab[0].id = base
	return &slab[0]
}

// release returns a drained event to the freelist.
func (s *Scheduler) release(ev *event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	s.free = append(s.free, ev.id)
}

// newEvent checks out an event for time t with its handler (fn, or argFn
// with arg) and the next seq; the caller queues it.
func (s *Scheduler) newEvent(t Time, fn Handler, argFn ArgHandler, arg any) *event {
	if fn == nil && argFn == nil {
		panic("sim: scheduling nil handler")
	}
	ev := s.alloc()
	ev.when = t
	ev.seq = s.nextSeq(t)
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	s.pending++
	return ev
}

// nextSeq takes the seq of an event or timer arm at time t, which must
// not be in the past.
func (s *Scheduler) nextSeq(t Time) uint64 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	return s.seq - 1
}

// At schedules fn to run at absolute time t, which must not be in the past.
func (s *Scheduler) At(t Time, fn Handler) {
	s.push(s.newEvent(t, fn, nil, nil).key())
}

// AtCall schedules fn(arg) to run at absolute time t. It is the
// allocation-free alternative to At for hot paths: fn is typically a
// package-level function and arg a pooled object, so neither boxes.
func (s *Scheduler) AtCall(t Time, fn ArgHandler, arg any) {
	s.push(s.newEvent(t, nil, fn, arg).key())
}

// AtCallLane is AtCall with the event queued in lane l (see Lane) when t
// is not before l's tail. An earlier t goes into the heap on its own,
// which is always correct: a lane changes what dispatch costs, never its
// order.
func (s *Scheduler) AtCallLane(l *Lane, t Time, fn ArgHandler, arg any) {
	ev := s.newEvent(t, nil, fn, arg)
	switch tail := l.tail; {
	case tail == nil:
		ev.lane = l
		l.tail = ev
		s.push(ev.key())
	case t >= tail.when:
		ev.lane = l
		tail.next = ev
		l.tail = ev
	default:
		s.push(ev.key())
	}
}

// Schedule schedules fn to run after delay (which may be zero but not
// negative).
func (s *Scheduler) Schedule(delay Time, fn Handler) {
	s.At(s.after(delay), fn)
}

// after converts a delay, which must not be negative, to an absolute time.
func (s *Scheduler) after(delay Time) Time {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.now + delay
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Halt() { s.halted = true }

// push appends e to the event heap and sifts it up to its position.
func (s *Scheduler) push(e entry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

// pop removes and returns the event heap's earliest event. When it heads
// a lane, the lane's next event takes over its heap slot; the next event
// is usually only nanoseconds later, so its sift stops near the root. The
// caller must ensure the heap is non-empty.
func (s *Scheduler) pop() *event {
	ev := s.eventAt(s.heap[0].id)
	s.pending--
	if l := ev.lane; l != nil {
		ev.lane = nil
		if next := ev.next; next != nil {
			ev.next = nil
			s.siftDown(next.key())
			return ev
		}
		l.tail = nil
	}
	n := len(s.heap) - 1
	moved := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(moved)
	}
	return ev
}

// siftDown puts e in the root slot and sifts it down to its heap
// position, shifting smaller children up into the hole instead of
// swapping. A full family of four picks its smallest child without
// branches (see b2i); a last, partial family scans.
func (s *Scheduler) siftDown(e entry) {
	h := s.heap
	n := len(h)
	i := 0
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
		i = m
	}
	h[i] = e
}

// step pops and executes the next event or timer, whichever of the two
// heap roots is earlier by (when, seq). It reports false when both queues
// are empty.
func (s *Scheduler) step() bool {
	if len(s.timers) > 0 && (len(s.heap) == 0 || less(s.timers[0], s.heap[0])) {
		s.fireTimer()
		return true
	}
	if len(s.heap) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.when
	s.executed++
	if fn := ev.fn; fn != nil {
		fn()
	} else {
		ev.argFn(ev.arg)
	}
	s.release(ev)
	return true
}

// nextAt reports when the earliest queued event or timer is due, or Never
// when nothing is queued.
func (s *Scheduler) nextAt() Time {
	t := Never
	if len(s.heap) > 0 {
		t = s.heap[0].when
	}
	if len(s.timers) > 0 && s.timers[0].when < t {
		t = s.timers[0].when
	}
	return t
}

// Run executes events until the queue is empty or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.step() {
	}
}

// RunUntil executes events with time ≤ end and then moves the clock to
// end, even when the queue empties first. Events scheduled at exactly end
// do fire. If a handler calls Halt, RunUntil returns after that event with
// the clock left at the event's time, so events still queued before end
// fire at their own times on the next Run or RunUntil.
func (s *Scheduler) RunUntil(end Time) {
	s.halted = false
	for !s.halted && s.nextAt() <= end && s.step() {
	}
	if !s.halted && s.now < end {
		s.now = end
	}
}
