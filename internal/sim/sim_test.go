package sim

import (
	"reflect"
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

// Cancelling is stopping a timer: a stopped expiry never fires, a second
// Stop is a no-op, and the stopped timer leaves nothing queued.
func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Start(10 * Microsecond)
	tm.Stop()
	tm.Stop() // double-stop is a no-op
	if tm.Pending() || tm.Deadline() != Never {
		t.Errorf("stopped timer: Pending() = %v, Deadline() = %v", tm.Pending(), tm.Deadline())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Stop, want 0", s.Pending())
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if s.Executed() != 0 {
		t.Errorf("Executed() = %d, want 0", s.Executed())
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

// Property: of a batch of timers armed at random times, the stopped ones
// never fire and every other one fires exactly once, at its deadline.
func TestPropertyCancelledNeverFire(t *testing.T) {
	f := func(delaysRaw []uint16, stopMask []bool) bool {
		s := NewScheduler(9)
		stopped := func(i int) bool { return i < len(stopMask) && stopMask[i] }
		fired := make([]int, len(delaysRaw))
		ok := true
		var timers []*Timer
		for i, d := range delaysRaw {
			i, when := i, Time(d)*Microsecond
			timers = append(timers, NewTimer(s, func() {
				fired[i]++
				ok = ok && s.Now() == when
			}))
			timers[i].StartAt(when)
		}
		for i, tm := range timers {
			if stopped(i) {
				tm.Stop()
			}
		}
		s.Run()
		for i, n := range fired {
			if stopped(i) && n != 0 || !stopped(i) && n != 1 {
				return false
			}
		}
		return ok && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Stopped timers must not disturb FIFO ordering among surviving
// same-time expiries and plain events, even when stops interleave with
// arming, and a re-arm to the same time goes to the back of the line: it
// takes a fresh seq, as a new event would.
func TestSameTimeFIFOWithCancellations(t *testing.T) {
	s := NewScheduler(1)
	const n = 20
	var order []int
	timers := make([]*Timer, n)
	stopped := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		if i%4 == 1 {
			s.At(5*Microsecond, func() { order = append(order, i) })
		} else {
			timers[i] = NewTimer(s, func() { order = append(order, i) })
			timers[i].StartAt(5 * Microsecond)
		}
		if j := i - 2; j >= 0 && j%3 == 0 && timers[j] != nil {
			timers[j].Stop()
			stopped[j] = true
		}
	}
	timers[2].StartAt(5 * Microsecond)
	s.Run()
	var want []int
	for i := 0; i < n; i++ {
		if !stopped[i] && i != 2 {
			want = append(want, i)
		}
	}
	want = append(want, 2)
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("same-time firing order %v, want %v", order, want)
	}
}

// A restart-heavy workload (every armed timeout is restarted before it
// expires) must fire nothing but the final arming of each timer, keep
// exactly one queue entry per armed timer, and drain completely.
func TestCancelHeavyWorkload(t *testing.T) {
	s := NewScheduler(1)
	fired := map[int]int{}
	round := 0
	var timers []*Timer
	for i := 0; i < 10; i++ {
		i := i
		timers = append(timers, NewTimer(s, func() { fired[round*10+i]++ }))
	}
	for ; round < 50; round++ {
		for i, tm := range timers {
			tm.Start(Time(10+i) * Microsecond)
		}
		if s.Pending() != len(timers) || len(s.timers) != len(timers) {
			t.Fatalf("round %d: Pending() = %d, timer heap %d, want %d",
				round, s.Pending(), len(s.timers), len(timers))
		}
		s.RunUntil(s.Now() + 5*Microsecond) // half-way: nothing due yet
	}
	round--
	s.Run()
	// Only the final round's armings fire, each exactly once.
	if len(fired) != 10 {
		t.Fatalf("%d distinct armings fired, want 10", len(fired))
	}
	for id, n := range fired {
		if id < 490 || n != 1 {
			t.Fatalf("arming %d fired %d times", id, n)
		}
	}
	if s.Pending() != 0 || s.Executed() != 10 {
		t.Errorf("after Run: Pending() = %d, Executed() = %d, want 0 and 10", s.Pending(), s.Executed())
	}
}

// Freelist reuse: once a workload's events have been popped, rescheduling
// the same volume must reuse their storage instead of growing the slab,
// and timers restarted alongside take no event storage at all.
func TestFreelistReuseAfterPop(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, func() {})
	burst := func() {
		for i := 0; i < 3*eventChunkSize; i++ {
			s.Schedule(Time(i)*Microsecond, func() {})
			tm.Start(Time(i+1) * Microsecond) // restarted every time
		}
		s.Run()
	}
	burst()
	chunksAfterFirst := s.chunks
	if chunksAfterFirst != 3 {
		t.Fatalf("first burst allocated %d slab chunks, want 3", chunksAfterFirst)
	}
	for i := 0; i < 10; i++ {
		burst()
	}
	if s.chunks != chunksAfterFirst {
		t.Errorf("slab grew from %d to %d chunks across identical bursts; freelist not reused",
			chunksAfterFirst, s.chunks)
	}
	if st := s.Stats(); st.Live != 0 || st.Puts != st.Gets {
		t.Errorf("drained scheduler: Live = %d, Gets = %d, Puts = %d", st.Live, st.Gets, st.Puts)
	}
}

// Recycled events must present fresh state to the next schedule call: an
// At event's slot reused by AtCall runs the new handler with its
// argument, not the old closure.
func TestRecycledEventStateReset(t *testing.T) {
	s := NewScheduler(1)
	stale := 0
	s.Schedule(Microsecond, func() { stale++ })
	s.Run() // fires and recycles the event
	var got any
	s.AtCall(s.Now()+Microsecond, func(x any) { got = x }, 7)
	if len(s.free) != eventChunkSize-1 {
		t.Fatalf("AtCall did not reuse the recycled slot: %d free", len(s.free))
	}
	s.Run()
	if stale != 1 || got != 7 {
		t.Fatalf("recycled slot: old handler ran %d times, new handler got %v", stale, got)
	}
}

// Scheduler accounting: Gets counts every schedule and every timer arm,
// Live counts queued events plus armed timers, and Puts = Gets - Live.
func TestSchedulerStatsCountTimerArms(t *testing.T) {
	s := NewScheduler(1)
	a := NewTimer(s, func() {})
	b := NewTimer(s, func() {})
	s.At(5, func() {})
	a.Start(10)
	a.Start(20) // a re-arm is an arm
	b.Start(30)
	b.Stop()
	st := s.Stats()
	if st.Gets != 4 || st.Live != 2 || st.Puts != 2 || s.Pending() != 2 {
		t.Errorf("Stats() = %+v, Pending() = %d; want Gets 4, Live 2, Puts 2, Pending 2", st, s.Pending())
	}
}

// A warmed timer re-arms, stops and fires without allocating.
func TestTimerRearmAllocatesNothing(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	var others []*Timer
	for i := 0; i < 8; i++ {
		tm := NewTimer(s, func() {})
		tm.Start(Time(100 + i))
		others = append(others, tm)
	}
	tm := NewTimer(s, func() { n++ })
	tm.Start(1)
	allocs := testing.AllocsPerRun(100, func() {
		tm.Start(50)
		tm.StartAt(s.Now() + 2)
		tm.Stop()
		tm.Start(1)
		s.RunUntil(s.Now() + 1)
		for _, o := range others {
			o.Start(100)
		}
	})
	if allocs != 0 {
		t.Errorf("timer re-arm/stop/fire allocates %.1f allocs/run, want 0", allocs)
	}
	if n != 101 { // AllocsPerRun adds one warm-up run
		t.Errorf("timer fired %d times, want 101", n)
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

// BenchmarkSchedulerTimerRestart models the MAC's dominant pattern: a
// 50 µs timeout restarted on every 1 µs tick (the response arrives, or
// the channel goes busy, before the timer expires), so it never fires.
// One op is one tick.
func BenchmarkSchedulerTimerRestart(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	timeout := NewTimer(s, func() { panic("restarted timer fired") })
	n := 0
	var tick func()
	tick = func() {
		n++
		if n >= b.N {
			timeout.Stop()
			return
		}
		timeout.Start(50 * Microsecond)
		s.Schedule(Microsecond, tick)
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

// BenchmarkSchedulerLaneTimers is BenchmarkSchedulerLanes' lane case with
// a station's timers added: each transmitter's access timer re-arms
// itself from its own handler to start the next transmission, and every
// transmission restarts a response timeout that the next one always
// beats, as an ACK arriving in time does. One op is one dispatched event.
func BenchmarkSchedulerLaneTimers(b *testing.B) {
	const width, fanout = 4096, 20
	b.ReportAllocs()
	s := NewScheduler(1)
	n := 0
	arrive := func(any) { n++ }
	type station struct {
		lane            Lane
		access, timeout *Timer
	}
	stations := make([]station, width)
	for i := range stations {
		st := &stations[i]
		st.timeout = NewTimer(s, func() {})
		st.access = NewTimer(s, func() {
			n++
			if n >= b.N {
				return
			}
			for j := 1; j <= fanout; j++ {
				s.AtCallLane(&st.lane, s.Now()+Time(j), arrive, nil)
			}
			st.timeout.Start(2 * width * Microsecond)
			st.access.Start(width * Microsecond)
		})
		st.access.StartAt(Time(i) * Microsecond)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkSchedulerDeepTimers models perfbench dense's scheduler load:
// 2,000 periodic sources tick about every 39 ms and so stay resident deep
// in a heap, while 400 near timers churn at about 300 µs, as NAV does:
// each expiry re-arms its own timer and re-keys another one. Every delay
// carries ±1% jitter. The ticks run as self-rescheduling AtCall events,
// as CBRSource's do, or as Timers that re-arm themselves, which puts
// them in the keyed-timer heap that every near timer sifts through. One
// op is one dispatched event or timer expiry.
func BenchmarkSchedulerDeepTimers(b *testing.B) {
	const ticks, near = 2000, 400
	const period, nav = 39 * Millisecond, 300 * Microsecond
	for _, mode := range []string{"events", "timers"} {
		b.Run("ticks="+mode, func(b *testing.B) {
			b.ReportAllocs()
			s := NewScheduler(1)
			rng := s.RNG()
			jitter := func(d Time) Time { return d - d/100 + Time(rng.Int63n(int64(d/50)+1)) }
			n := 0
			var tick ArgHandler
			tick = func(x any) {
				n++
				if n < b.N {
					s.AtCall(s.Now()+jitter(period), tick, x)
				}
			}
			for i := 0; i < ticks; i++ {
				at := Time(rng.Int63n(int64(period)))
				if mode == "events" {
					s.AtCall(at, tick, nil)
					continue
				}
				var t *Timer
				t = NewTimer(s, func() {
					n++
					if n < b.N {
						t.Start(jitter(period))
					}
				})
				t.StartAt(at)
			}
			navs := make([]*Timer, near)
			for i := range navs {
				navs[i] = NewTimer(s, func() {
					n++
					if n < b.N {
						navs[i].Start(jitter(nav))
						navs[rng.Intn(near)].Start(jitter(nav))
					}
				})
				navs[i].StartAt(Time(rng.Int63n(int64(nav))))
			}
			b.ResetTimer()
			s.Run()
		})
	}
}
