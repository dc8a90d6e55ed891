package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// laneOp is one scheduling step of a lane property script.
type laneOp struct {
	Lane   uint8 // lane index mod 4; 3 means a plain AtCall
	Delay  uint8 // offset from now in ns, mod 16 so times tie often
	Cancel uint8 // when a multiple of 3, cancel an earlier live event
}

// laneFiring is what the script observes when an event fires.
type laneFiring struct {
	op      int
	at      Time
	pending int
}

// runLaneScript plays ops against a fresh scheduler: four ops go out at
// time zero and every firing schedules the next two, so lanes drain,
// refill and fall back to the heap while events are in flight. With
// useLanes false every op is a plain AtCall: the reference run.
func runLaneScript(ops []laneOp, useLanes bool) []laneFiring {
	s := NewScheduler(1)
	var lanes [3]Lane
	events := make([]*Event, len(ops))
	done := make([]bool, len(ops)) // fired or cancelled: the *Event may be recycled
	var log []laneFiring
	next := 0
	var fire ArgHandler
	issue := func(k int) {
		for ; k > 0 && next < len(ops); k-- {
			i, op := next, ops[next]
			next++
			t := s.Now() + Time(op.Delay%16)
			if l := op.Lane % 4; useLanes && l < 3 {
				events[i] = s.AtCallLane(&lanes[l], t, fire, i)
			} else {
				events[i] = s.AtCall(t, fire, i)
			}
			if op.Cancel%3 == 0 {
				j := int(op.Cancel/3) % (i + 1)
				if !done[j] {
					s.Cancel(events[j])
					done[j] = true
				}
			}
		}
	}
	fire = func(x any) {
		i := x.(int)
		done[i] = true
		log = append(log, laneFiring{op: i, at: s.Now(), pending: s.Pending()})
		issue(2)
	}
	issue(4)
	s.Run()
	return log
}

// Lanes change what dispatch costs, never its order: any mix of lane
// appends, plain events and cancels fires exactly as the same script
// with plain AtCalls only, at the same times and with the same Pending
// count (lane members included) at every firing.
func TestPropertyLanesMatchHeapOrder(t *testing.T) {
	f := func(ops []laneOp) bool {
		return reflect.DeepEqual(runLaneScript(ops, true), runLaneScript(ops, false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
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
	early := s.AtCallLane(&l, 5, rec, 2)
	s.AtCallLane(&l, 10, rec, 3)
	s.AtCallLane(&l, 12, rec, 4)
	if early.lane != nil {
		t.Error("an append before the lane's tail joined the lane")
	}
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
