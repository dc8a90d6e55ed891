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

// Event is a scheduled callback. The zero value is not useful; events are
// created via Scheduler.Schedule or Scheduler.At. An Event may be cancelled
// before it fires; cancellation is O(1) (the event is skipped when popped).
//
// Events are recycled: once an event has fired (or been cancelled and
// drained from the queue) its storage returns to the scheduler's freelist
// and a later Schedule/At call may hand the same *Event out again. Holding
// a reference past that point and calling Cancel on it would cancel the
// event's next incarnation, so drop references when an event fires — the
// pattern Timer follows by clearing its pointer before running the handler.
type Event struct {
	when      Time
	seq       uint64 // tie-break: FIFO among same-time events
	id        uint32 // slab slot, fixed at chunk allocation (see entry)
	cancelled bool
	lane      *Lane  // the lane the event is queued in; nil outside a lane
	next      *Event // the lane's following event; nil at its tail
	fn        Handler
	argFn     ArgHandler // exactly one of fn/argFn is set
	arg       any
}

// When reports the time at which the event is (or was) scheduled to fire.
func (e *Event) When() Time { return e.when }

// key is the event's heap entry.
func (e *Event) key() entry { return entry{when: e.when, seq: e.seq, id: e.id} }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

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
	tail *Event // last queued event; nil when the lane is empty
}

// entry is one heap slot. The ordering key (when, seq) is stored inline so
// sift comparisons stay within the heap's own backing array instead of
// chasing the event, and the event itself is referenced by its slab id
// rather than a pointer: a pointer-free entry type means sift swaps issue
// no GC write barriers and the GC never scans the heap slice. Both showed
// up in profiles (pop was ~30% flat, with barrier flushes behind it).
type entry struct {
	when Time
	seq  uint64
	id   uint32
}

// less orders entries by (when, seq): earliest first, FIFO among ties.
func less(a, b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// heapArity is the fan-out of the implicit min-heap. A 4-ary heap is
// shallower than a binary one (fewer cache lines touched per pop) and the
// four-child scan stays within one or two lines of the entry slice.
const heapArity = 4

// eventChunkSize is how many Events each slab allocation holds. Event
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
type eventSlab [eventChunkSize]Event

// Scheduler is the discrete-event simulation core: a virtual clock and a
// priority queue of events. It is single-goroutine by design — all of the
// simulation's concurrency is virtual; independent Schedulers may run on
// concurrent goroutines. A Scheduler also acts as the root of the
// simulation's deterministic randomness (see RNG).
type Scheduler struct {
	now      Time
	heap     []entry // heap events plus the head of every non-empty lane
	pending  int     // queued events, lane members included
	seq      uint64
	executed uint64
	seed     int64
	streams  int64
	halted   bool

	// Event storage: fixed-size slabs keep *Event stable while the
	// freelist recycles fired/cancelled events (by id, keeping the
	// freelist pointer-free too), so steady-state scheduling does not
	// allocate.
	slabs  []*eventSlab
	free   []uint32
	chunks int // number of slabs allocated (growth observability)
}

// eventAt resolves a slab id back to its event.
func (s *Scheduler) eventAt(id uint32) *Event {
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

// Pending reports the number of events still queued (including cancelled
// events not yet skipped and events waiting in lanes).
func (s *Scheduler) Pending() int { return s.pending }

// Stats reports the event slab's occupancy in the same shape the object
// pools use: chunks grown, events currently queued (live), and freelist
// depth. Every At call checks an event out, so Gets equals the lifetime
// schedule count.
func (s *Scheduler) Stats() pool.Stats {
	live := s.chunks*eventChunkSize - len(s.free)
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
	return rand.New(rand.NewSource(int64(z)))
}

// alloc hands out an Event from the freelist, growing the slab by one
// chunk only when every previously allocated event is live.
func (s *Scheduler) alloc() *Event {
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
func (s *Scheduler) release(ev *Event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	s.free = append(s.free, ev.id)
}

// newEvent checks out an event for time t with its handler (fn, or argFn
// with arg) and the next seq; the caller queues it.
func (s *Scheduler) newEvent(t Time, fn Handler, argFn ArgHandler, arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil && argFn == nil {
		panic("sim: scheduling nil handler")
	}
	ev := s.alloc()
	ev.when = t
	ev.seq = s.seq
	ev.cancelled = false
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	s.seq++
	s.pending++
	return ev
}

// At schedules fn to run at absolute time t, which must not be in the past.
func (s *Scheduler) At(t Time, fn Handler) *Event {
	ev := s.newEvent(t, fn, nil, nil)
	s.push(ev.key())
	return ev
}

// AtCall schedules fn(arg) to run at absolute time t. It is the
// allocation-free alternative to At for hot paths: fn is typically a
// package-level function and arg a pooled object, so neither boxes.
func (s *Scheduler) AtCall(t Time, fn ArgHandler, arg any) *Event {
	ev := s.newEvent(t, nil, fn, arg)
	s.push(ev.key())
	return ev
}

// AtCallLane is AtCall with the event queued in lane l (see Lane) when t
// is not before l's tail. An earlier t goes into the heap on its own,
// which is always correct: a lane changes what dispatch costs, never its
// order. Lane events are cancelled like any other.
func (s *Scheduler) AtCallLane(l *Lane, t Time, fn ArgHandler, arg any) *Event {
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
	return ev
}

// Schedule schedules fn to run after delay (which may be zero but not
// negative).
func (s *Scheduler) Schedule(delay Time, fn Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// Cancel marks ev so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	// Release references held by the closure or argument.
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Halt() { s.halted = true }

// push appends e and sifts it up to its heap position.
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

// pop removes and returns the earliest queued event. When it heads a lane,
// the lane's next event takes over its heap slot; the next event is
// usually only nanoseconds later, so its sift stops near the root. The
// caller must ensure the heap is non-empty.
func (s *Scheduler) pop() *Event {
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
// swapping.
func (s *Scheduler) siftDown(e entry) {
	h := s.heap
	n := len(h)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[m]) {
				m = c
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

// step pops and executes the next event. It reports false when the queue is
// exhausted.
func (s *Scheduler) step() bool {
	for len(s.heap) > 0 {
		ev := s.pop()
		if ev.cancelled {
			s.release(ev)
			continue
		}
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
	return false
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
	for !s.halted {
		// Peek: the heap root is the earliest event. Drain cancelled
		// events so the peek sees a live one.
		for len(s.heap) > 0 && s.eventAt(s.heap[0].id).cancelled {
			s.release(s.pop())
		}
		if len(s.heap) == 0 {
			break
		}
		if s.heap[0].when > end {
			break
		}
		s.step()
	}
	if !s.halted && s.now < end {
		s.now = end
	}
}
