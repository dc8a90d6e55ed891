package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// scriptOp is one step of a scheduling property script.
type scriptOp struct {
	Kind  uint8 // mod 7: 0-2 lane append, 3 AtCall, 4 Start, 5 StartAt, 6 Stop
	Delay uint8 // offset from now in ns, mod 16 so times tie often
	Timer uint8 // shared timer index, mod scriptTimers
}

// scriptTimers is how many shared timers a script drives: enough for a
// second level in the 4-ary timer heap.
const scriptTimers = 7

// scriptFiring is what a script observes when an event or timer fires.
type scriptFiring struct {
	label     int // the op index of an event; -1-k for shared timer k
	at        Time
	pending   int
	deadlines []Time // every shared timer's Deadline
}

// firer is the script a target reports its firings to.
type firer interface{ fired(label int) }

// observe records what target shows at a firing of label.
func observe(target scriptTarget, label, timers int) scriptFiring {
	f := scriptFiring{label: label, at: target.now(), pending: target.pending(),
		deadlines: make([]Time, timers)}
	for k := range f.deadlines {
		f.deadlines[k] = target.deadline(k)
	}
	return f
}

// scriptTarget is what a script drives: the Scheduler, or the reference
// queue that checks it.
type scriptTarget interface {
	now() Time
	post(lane int, t Time, label int) // lane 3: a plain AtCall
	start(k int, delay Time, absolute bool)
	stop(k int)
	pending() int
	deadline(k int) Time
	run()
}

// script plays ops against a target: four ops go out at time zero and
// every firing issues the next two, so lanes drain, refill and fall back
// to the heap and timers re-arm, stop and fire while events are in
// flight. Shared timer 0 also re-arms itself from its own handler while
// ops remain.
type script struct {
	ops    []scriptOp
	next   int
	target scriptTarget
	log    []scriptFiring
}

func (r *script) issue(k int) {
	for ; k > 0 && r.next < len(r.ops); k-- {
		i, op := r.next, r.ops[r.next]
		r.next++
		d := Time(op.Delay % 16)
		switch kind, tm := op.Kind%7, int(op.Timer%scriptTimers); kind {
		case 0, 1, 2, 3:
			r.target.post(int(kind), r.target.now()+d, i)
		case 4, 5:
			r.target.start(tm, d, kind == 5)
		case 6:
			r.target.stop(tm)
		}
	}
}

func (r *script) fired(label int) {
	r.log = append(r.log, observe(r.target, label, scriptTimers))
	if label == -1 && r.next < len(r.ops) {
		r.target.start(0, Time(len(r.log)%5), false)
	}
	r.issue(2)
}

func runScript(ops []scriptOp, target func(firer, int) scriptTarget) []scriptFiring {
	r := &script{ops: ops}
	r.target = target(r, scriptTimers)
	r.issue(4)
	r.target.run()
	return r.log
}

// schedTarget drives the Scheduler, lanes and timers included. It runs
// in RunUntil slices so dispatch also goes through the peek of both heaps.
type schedTarget struct {
	s      *Scheduler
	lanes  [3]Lane
	timers []*Timer
	fire   ArgHandler
}

func newSchedTarget(r firer, timers int) scriptTarget {
	st := &schedTarget{s: NewScheduler(1), timers: make([]*Timer, timers)}
	st.fire = func(x any) { r.fired(x.(int)) }
	for k := range st.timers {
		label := -1 - k
		st.timers[k] = NewTimer(st.s, func() { r.fired(label) })
	}
	return st
}

func (st *schedTarget) now() Time { return st.s.Now() }
func (st *schedTarget) post(lane int, t Time, label int) {
	if lane < 3 {
		st.s.AtCallLane(&st.lanes[lane], t, st.fire, label)
	} else {
		st.s.AtCall(t, st.fire, label)
	}
}
func (st *schedTarget) start(k int, delay Time, absolute bool) {
	if absolute {
		st.timers[k].StartAt(st.s.Now() + delay)
	} else {
		st.timers[k].Start(delay)
	}
}
func (st *schedTarget) stop(k int)          { st.timers[k].Stop() }
func (st *schedTarget) pending() int        { return st.s.Pending() }
func (st *schedTarget) deadline(k int) Time { return st.timers[k].Deadline() }
func (st *schedTarget) run() {
	for st.s.nextAt() != Never {
		st.s.RunUntil(st.s.Now() + 7)
	}
}

// refItem is one entry of the reference queue.
type refItem struct {
	when  Time
	seq   uint64
	label int
	dead  bool // cancelled: skipped when it reaches the front
}

// refTarget is the reference the Scheduler is checked against: one list
// kept sorted by (when, seq), timers as plain entries, and cancellation
// by flag. Every post and arm takes the next seq.
type refTarget struct {
	r      firer
	clock  Time
	seq    uint64
	queue  []*refItem
	timers []*refItem // each timer's live entry; nil when disarmed
}

func newRefTarget(r firer, timers int) scriptTarget {
	return &refTarget{r: r, timers: make([]*refItem, timers)}
}

func (rt *refTarget) insert(when Time, label int) *refItem {
	it := &refItem{when: when, seq: rt.seq, label: label}
	rt.seq++
	i := sort.Search(len(rt.queue), func(i int) bool {
		q := rt.queue[i]
		return q.when > when || q.when == when && q.seq > it.seq
	})
	rt.queue = append(rt.queue, nil)
	copy(rt.queue[i+1:], rt.queue[i:])
	rt.queue[i] = it
	return it
}

func (rt *refTarget) now() Time                     { return rt.clock }
func (rt *refTarget) post(_ int, t Time, label int) { rt.insert(t, label) }
func (rt *refTarget) start(k int, delay Time, _ bool) {
	rt.stop(k)
	rt.timers[k] = rt.insert(rt.clock+delay, -1-k)
}
func (rt *refTarget) stop(k int) {
	if it := rt.timers[k]; it != nil {
		it.dead = true
		rt.timers[k] = nil
	}
}
func (rt *refTarget) pending() int {
	n := 0
	for _, it := range rt.queue {
		if !it.dead {
			n++
		}
	}
	return n
}
func (rt *refTarget) deadline(k int) Time {
	if it := rt.timers[k]; it != nil {
		return it.when
	}
	return Never
}
func (rt *refTarget) run() {
	for len(rt.queue) > 0 {
		it := rt.queue[0]
		rt.queue = rt.queue[1:]
		if it.dead {
			continue
		}
		rt.clock = it.when
		if it.label < 0 {
			rt.timers[-1-it.label] = nil
		}
		rt.r.fired(it.label)
	}
}

// Lanes and keyed timers change what dispatch costs, never its order:
// any mix of lane appends, plain events, timer arms, re-arms and stops
// fires exactly as the reference queue does, at the same times, with the
// same Pending count (lane members and armed timers included) and the
// same timer deadlines at every firing.
func TestPropertyLanesMatchHeapOrder(t *testing.T) {
	f := func(ops []scriptOp) bool {
		return reflect.DeepEqual(runScript(ops, newSchedTarget), runScript(ops, newRefTarget))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// deepScript drives a target in the shape of a dense world: hundreds of
// timers, armed near and far and re-keyed as NAV is, plus far periodic
// AtCall ticks that reschedule themselves as CBR sources do.
// Both heaps then hold full four-child families four levels down, where
// the sifts pick the least child without branches. Delays come in coarse
// steps so keys tie often and the seq tiebreak decides.
type deepScript struct {
	rng    *rand.Rand
	target scriptTarget
	log    []scriptFiring
	left   int    // firings that still issue work
	posts  int    // plain events posted so far
	low    [2]int // fewest heap events and armed timers while work is issued
}

const (
	deepTimers = 300
	deepTicks  = 300
	deepStep   = 1 << 10 // a far delay's granularity, in ns
)

// delay is a near delay (under 16 ns) or a far one (up to 64 steps).
func (d *deepScript) delay() Time {
	if d.rng.Intn(2) == 0 {
		return Time(d.rng.Intn(16))
	}
	return Time(d.rng.Intn(64)) * deepStep
}

func (d *deepScript) fired(label int) {
	d.log = append(d.log, observe(d.target, label, deepTimers))
	if d.left == 0 {
		return
	}
	if st, ok := d.target.(*schedTarget); ok {
		d.low[0] = min(d.low[0], len(st.s.heap))
		d.low[1] = min(d.low[1], len(st.s.timers))
	}
	d.left--
	now := d.target.now()
	switch {
	case label >= 0 && label < deepTicks:
		d.target.post(3, now+Time(64+d.rng.Intn(8))*deepStep, label)
	case label < 0 && d.rng.Intn(2) == 0:
		d.target.start(-1-label, d.delay(), false)
	}
	for range 2 {
		k := d.rng.Intn(deepTimers)
		switch d.rng.Intn(4) {
		case 0, 1:
			d.target.start(k, d.delay(), d.rng.Intn(2) == 0)
		case 2:
			d.target.stop(k)
		case 3:
			d.target.post(3, now+d.delay(), deepTicks+d.posts)
			d.posts++
		}
	}
}

func runDeepScript(seed int64, target func(firer, int) scriptTarget) *deepScript {
	d := &deepScript{rng: NewRand(seed), left: 3000, low: [2]int{math.MaxInt, math.MaxInt}}
	d.target = target(d, deepTimers)
	for k := 0; k < deepTimers; k++ {
		d.target.start(k, Time(d.rng.Intn(64))*deepStep, false)
	}
	for i := 0; i < deepTicks; i++ {
		d.target.post(3, Time(d.rng.Intn(64))*deepStep, i)
	}
	d.target.run()
	return d
}

// The deep-heap sibling of TestPropertyLanesMatchHeapOrder: with both
// heaps hundreds of entries deep, dispatch still matches the reference
// queue in order, times, Pending count and every timer's deadline.
func TestPropertyDeepHeapsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		got, want := runDeepScript(seed, newSchedTarget), runDeepScript(seed, newRefTarget)
		// Depth 3 ends at index 84, so its first node's family is full
		// from 89 entries on.
		if got.low[0] < 89 || got.low[1] < 89 {
			t.Fatalf("seed %d: heaps fell to %d events and %d timers, want both at least 89",
				seed, got.low[0], got.low[1])
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d firings, want %d", seed, len(got.log), len(want.log))
		}
		for i := range got.log {
			if !reflect.DeepEqual(got.log[i], want.log[i]) {
				g, w := got.log[i], want.log[i]
				t.Fatalf("seed %d: firing %d is label %d at %v with %d pending, want label %d at %v with %d pending (or deadlines differ)",
					seed, i, g.label, g.at, g.pending, w.label, w.at, w.pending)
			}
		}
	}
}

// An append earlier than the lane's tail goes into the heap on its own
// and still fires first; later appends keep using the lane.
func TestLaneNonMonotoneFallsBackToHeap(t *testing.T) {
	s := NewScheduler(1)
	var l Lane
	var order []int
	rec := func(x any) { order = append(order, x.(int)) }
	s.AtCallLane(&l, 10, rec, 1)
	s.AtCallLane(&l, 5, rec, 2)
	s.AtCallLane(&l, 10, rec, 3)
	s.AtCallLane(&l, 12, rec, 4)
	if len(s.heap) != 2 {
		t.Errorf("heap holds %d entries, want the lane head plus the fallback", len(s.heap))
	}
	s.Run()
	if want := []int{2, 1, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Errorf("fired %v, want %v", order, want)
	}
	if l.tail != nil {
		t.Error("lane not empty after Run")
	}
}

// Pending counts every queued event, lane members included, though only
// the lane's head occupies the heap.
func TestLanePendingCountsMembers(t *testing.T) {
	s := NewScheduler(1)
	var l Lane
	nop := func(any) {}
	for i := 0; i < 5; i++ {
		s.AtCallLane(&l, Time(i), nop, nil)
	}
	s.At(3, func() {})
	if got := s.Pending(); got != 6 {
		t.Errorf("Pending() = %d, want 6", got)
	}
	if len(s.heap) != 2 {
		t.Errorf("heap holds %d entries, want 2 (lane head + plain event)", len(s.heap))
	}
	s.RunUntil(2)
	if got := s.Pending(); got != 3 {
		t.Errorf("Pending() = %d after three lane events fired, want 3", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() = %d after Run, want 0", got)
	}
}

// A drained lane refills from the event freelist: steady-state appends
// allocate nothing.
func TestLaneAppendsAllocateNothing(t *testing.T) {
	s := NewScheduler(1)
	var l Lane
	n := 0
	count := func(any) { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		for i := 1; i <= 20; i++ {
			s.AtCallLane(&l, s.Now()+Time(i), count, &l)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("lane fan-out allocates %.1f allocs/run, want 0", allocs)
	}
	if n != 20*101 { // AllocsPerRun adds one warm-up run
		t.Errorf("%d lane events fired, want %d", n, 20*101)
	}
}
