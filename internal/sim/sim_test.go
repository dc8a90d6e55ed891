package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	tests := []struct {
		name string
		in   Time
		want string
	}{
		{"nanoseconds", 512 * Nanosecond, "512ns"},
		{"microseconds", 152*Microsecond + 300*Nanosecond, "152.3µs"},
		{"milliseconds", 5 * Millisecond, "5.000ms"},
		{"seconds", 1250 * Millisecond, "1.250s"},
		{"never", Never, "never"},
		{"negative", -3 * Millisecond, "-3.000ms"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromMicroseconds(50); got != 50*Microsecond {
		t.Errorf("FromMicroseconds(50) = %v", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := (3 * Microsecond).Microseconds(); got != 3.0 {
		t.Errorf("Microseconds() = %v", got)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.Schedule(30*Microsecond, func() { order = append(order, 3) })
	s.Schedule(10*Microsecond, func() { order = append(order, 1) })
	s.Schedule(20*Microsecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30*Microsecond {
		t.Errorf("clock = %v, want 30µs", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Microsecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	ev := s.Schedule(10*Microsecond, func() { fired = true })
	s.Cancel(ev)
	s.Cancel(ev) // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestSchedulerCascade(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.Schedule(Microsecond, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run()
	if count != 100 {
		t.Errorf("cascade count = %d, want 100", count)
	}
	if s.Executed() != 100 {
		t.Errorf("Executed() = %d, want 100", s.Executed())
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		s.Schedule(d*Microsecond, func() { fired = append(fired, d) })
	}
	s.RunUntil(20 * Microsecond) // inclusive
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20", fired)
	}
	if s.Now() != 20*Microsecond {
		t.Errorf("clock = %v, want 20µs", s.Now())
	}
	s.RunUntil(100 * Microsecond)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4", fired)
	}
	if s.Now() != 100*Microsecond {
		t.Errorf("clock advanced to %v, want 100µs", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i)*Microsecond, func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 (halted)", count)
	}
}

// A Halt inside RunUntil leaves the clock at the halting event, not at
// end: the next RunUntil fires the events still queued at their own
// times instead of running the clock backwards.
func TestHaltedRunUntilKeepsClock(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	s.At(10*Microsecond, func() {
		fired = append(fired, s.Now())
		s.Halt()
	})
	s.At(20*Microsecond, func() { fired = append(fired, s.Now()) })
	s.RunUntil(100 * Microsecond)
	if s.Now() != 10*Microsecond {
		t.Errorf("halted RunUntil left the clock at %v, want 10µs", s.Now())
	}
	s.RunUntil(100 * Microsecond)
	if want := []Time{10 * Microsecond, 20 * Microsecond}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	if s.Now() != 100*Microsecond {
		t.Errorf("clock = %v after the resumed RunUntil, want 100µs", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.Schedule(10*Microsecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(5*Microsecond, func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewScheduler(42)
	b := NewScheduler(42)
	ra, rb := a.RNG(), b.RNG()
	for i := 0; i < 100; i++ {
		if ra.Int63() != rb.Int63() {
			t.Fatal("same seed, same stream index: sequences differ")
		}
	}
	// Different stream indices should not be identical.
	rc := a.RNG()
	same := true
	raCheck := NewScheduler(42).RNG()
	for i := 0; i < 20; i++ {
		if rc.Int63() != raCheck.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct streams produced identical output")
	}
}

func TestTimerBasics(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Pending() {
		t.Error("new timer pending")
	}
	tm.Start(10 * Microsecond)
	if !tm.Pending() {
		t.Error("armed timer not pending")
	}
	if tm.Deadline() != 10*Microsecond {
		t.Errorf("deadline = %v", tm.Deadline())
	}
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
	if tm.Deadline() != Never {
		t.Errorf("idle deadline = %v, want Never", tm.Deadline())
	}
}

func TestTimerRestartReplaces(t *testing.T) {
	s := NewScheduler(1)
	var times []Time
	tm := NewTimer(s, func() { times = append(times, s.Now()) })
	tm.Start(10 * Microsecond)
	tm.Start(25 * Microsecond) // replaces the first arming
	s.Run()
	if len(times) != 1 || times[0] != 25*Microsecond {
		t.Errorf("fired at %v, want exactly [25µs]", times)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Start(10 * Microsecond)
	tm.Stop()
	tm.Stop() // idempotent
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStartAt(t *testing.T) {
	s := NewScheduler(1)
	var at Time = -1
	tm := NewTimer(s, func() { at = s.Now() })
	s.Schedule(5*Microsecond, func() { tm.StartAt(42 * Microsecond) })
	s.Run()
	if at != 42*Microsecond {
		t.Errorf("fired at %v, want 42µs", at)
	}
}

// Property: for any batch of (time, id) pairs, events fire sorted by time
// with ties broken by insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := NewScheduler(7)
		type rec struct {
			when Time
			id   int
		}
		var fired []rec
		for i, d := range delaysRaw {
			i, when := i, Time(d)*Microsecond
			s.At(when, func() { fired = append(fired, rec{when, i}) })
		}
		s.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		sorted := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].when != fired[j].when {
				return fired[i].when < fired[j].when
			}
			return fired[i].id < fired[j].id
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil never leaves an event with when ≤ end unexecuted.
func TestPropertyRunUntilComplete(t *testing.T) {
	f := func(delaysRaw []uint16, endRaw uint16) bool {
		s := NewScheduler(3)
		end := Time(endRaw) * Microsecond
		want := 0
		got := 0
		for _, d := range delaysRaw {
			when := Time(d) * Microsecond
			if when <= end {
				want++
			}
			s.At(when, func() { got++ })
		}
		s.RunUntil(end)
		return got == want && s.Now() == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCancelledNeverFire(t *testing.T) {
	f := func(delaysRaw []uint16, cancelMask []bool) bool {
		s := NewScheduler(9)
		rng := rand.New(rand.NewSource(1))
		_ = rng
		firedCancelled := false
		var events []*Event
		for i, d := range delaysRaw {
			i := i
			ev := s.At(Time(d)*Microsecond, func() {
				if i < len(cancelMask) && cancelMask[i] {
					firedCancelled = true
				}
			})
			events = append(events, ev)
		}
		for i, ev := range events {
			if i < len(cancelMask) && cancelMask[i] {
				s.Cancel(ev)
			}
		}
		s.Run()
		return !firedCancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Cancelled events must not disturb FIFO ordering among surviving
// same-time events, even when cancellations interleave with scheduling.
func TestSameTimeFIFOWithCancellations(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	var events []*Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(5*Microsecond, func() { order = append(order, i) }))
	}
	for i, ev := range events {
		if i%3 == 0 {
			s.Cancel(ev)
		}
	}
	s.Run()
	want := 0
	for i := 0; i < 20; i++ {
		if i%3 == 0 {
			continue
		}
		if want >= len(order) || order[want] != i {
			t.Fatalf("surviving same-time events out of FIFO order: %v", order)
		}
		want++
	}
	if want != len(order) {
		t.Fatalf("fired %d events, want %d: %v", len(order), want, order)
	}
}

// A cancel-heavy workload (the Timer restart pattern: every armed timeout
// is cancelled and re-armed) must drain completely and fire nothing twice.
func TestCancelHeavyWorkload(t *testing.T) {
	s := NewScheduler(1)
	fired := map[int]int{}
	var pending []*Event
	for round := 0; round < 50; round++ {
		for _, ev := range pending {
			s.Cancel(ev)
		}
		pending = pending[:0]
		for i := 0; i < 10; i++ {
			id := round*10 + i
			pending = append(pending, s.Schedule(Time(10+i)*Microsecond, func() { fired[id]++ }))
		}
		s.RunUntil(s.Now() + 5*Microsecond) // half-way: nothing due yet
	}
	s.Run()
	// Only the final round's events survive; each fires exactly once.
	if len(fired) != 10 {
		t.Fatalf("%d distinct events fired, want 10", len(fired))
	}
	for id, n := range fired {
		if id < 490 || n != 1 {
			t.Fatalf("event %d fired %d times", id, n)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", s.Pending())
	}
}

// Freelist reuse: once a workload's events have been popped, rescheduling
// the same volume must reuse their storage instead of growing the slab.
func TestFreelistReuseAfterPop(t *testing.T) {
	s := NewScheduler(1)
	burst := func() {
		for i := 0; i < 3*eventChunkSize; i++ {
			ev := s.Schedule(Time(i)*Microsecond, func() {})
			if i%2 == 0 {
				s.Cancel(ev) // cancelled events recycle on pop too
			}
		}
		s.Run()
	}
	burst()
	chunksAfterFirst := s.chunks
	if chunksAfterFirst == 0 {
		t.Fatal("no slab chunks allocated by first burst")
	}
	for i := 0; i < 10; i++ {
		burst()
	}
	if s.chunks != chunksAfterFirst {
		t.Errorf("slab grew from %d to %d chunks across identical bursts; freelist not reused",
			chunksAfterFirst, s.chunks)
	}
}

// Recycled events must present fresh state to the next Schedule call: a
// cancelled-then-recycled slot starts un-cancelled.
func TestRecycledEventStateReset(t *testing.T) {
	s := NewScheduler(1)
	ev := s.Schedule(Microsecond, func() {})
	s.Cancel(ev)
	s.Run() // drains and recycles ev
	fired := false
	ev2 := s.Schedule(Microsecond, func() { fired = true })
	if ev2.Cancelled() {
		t.Fatal("recycled event starts cancelled")
	}
	s.Run()
	if !fired {
		t.Fatal("event on recycled storage did not fire")
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.Schedule(Microsecond, tick)
		}
	}
	b.ResetTimer()
	s.Schedule(0, tick)
	s.Run()
}

// BenchmarkSchedulerCancelHeavy models the MAC's dominant pattern: nearly
// every scheduled timeout is cancelled (ACK arrives before the timer) and
// replaced. The queue must absorb the dead events without allocating.
func BenchmarkSchedulerCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n >= b.N {
			return
		}
		doomed := s.Schedule(50*Microsecond, func() { panic("cancelled event fired") })
		s.Schedule(Microsecond, tick)
		s.Cancel(doomed)
	}
	b.ResetTimer()
	s.Schedule(0, tick)
	s.Run()
}

// BenchmarkSchedulerFanout measures heap behavior at depth: a wide queue
// of pending events with steady pop/push turnover.
func BenchmarkSchedulerFanout(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	const width = 4096
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.Schedule(Time(width)*Microsecond, tick)
		}
	}
	for i := 0; i < width; i++ {
		s.Schedule(Time(i)*Microsecond, tick)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkSchedulerLanes measures the medium's fan-out pattern at depth:
// width transmitters each put fanout arrivals on the queue nanoseconds
// apart, then re-arm a microsecond-spaced timer, so the heap stays as deep
// as BenchmarkSchedulerFanout's. The lane case queues each fan-out in the
// transmitter's lane; the heap case schedules the same events with
// AtCall. One op is one dispatched event.
func BenchmarkSchedulerLanes(b *testing.B) {
	const width, fanout = 4096, 20
	for _, useLanes := range []bool{true, false} {
		name := "heap"
		if useLanes {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := NewScheduler(1)
			n := 0
			arrive := func(any) { n++ }
			var transmit ArgHandler
			transmit = func(x any) {
				n++
				if n >= b.N {
					return
				}
				l := x.(*Lane)
				for i := 1; i <= fanout; i++ {
					if useLanes {
						s.AtCallLane(l, s.Now()+Time(i), arrive, nil)
					} else {
						s.AtCall(s.Now()+Time(i), arrive, nil)
					}
				}
				s.AtCall(s.Now()+Time(width)*Microsecond, transmit, l)
			}
			lanes := make([]Lane, width)
			for i := range lanes {
				s.AtCall(Time(i)*Microsecond, transmit, &lanes[i])
			}
			b.ResetTimer()
			s.Run()
		})
	}
}
