package trace

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Recording is one world's flight-recorder output; its recorder holds
// the world's invariant checker.
type Recording struct {
	Seed     int64
	Recorder *Recorder
}

// Meta builds the export header for this recording.
func (r *Recording) Meta(label string) Meta {
	return r.Recorder.Meta(label, r.Seed)
}

// Collector hands out one Recorder per simulated world and gathers the
// results in a canonical order, so exports are byte-identical no matter
// how many worlds ran concurrently. Every recording carries an invariant
// checker fed the full event stream by its recorder, so ring evictions
// don't blind it. Start is safe to call from parallel workers; each
// returned Recorder must stay within its own world.
type Collector struct {
	mu       sync.Mutex
	capacity int
	recs     []*Recording
}

// NewCollector builds a collector whose recorders keep the last capacity
// events each (<= 0 selects the Recorder default).
func NewCollector(capacity int) *Collector {
	return &Collector{capacity: capacity}
}

// EnableChecks does nothing: every recording is checked. It remains
// only because the benchmark harness under perfbench/ still calls it.
func (c *Collector) EnableChecks() {}

// Start registers a new recording for the given seed and returns its
// recorder, ready to attach to a world.
func (c *Collector) Start(seed int64) *Recorder {
	rec := NewRecorder(c.capacity)
	rec.checker = NewChecker(DefaultTiming())
	r := &Recording{Seed: seed, Recorder: rec}
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
	return rec
}

// Recordings returns the recordings in canonical order: by seed, ties
// broken by comparing the event streams themselves. The order therefore
// depends only on what was recorded, not on which worker finished first.
func (c *Collector) Recordings() []*Recording {
	c.mu.Lock()
	out := append([]*Recording(nil), c.recs...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return compareStreams(out[i].Recorder, out[j].Recorder) < 0
	})
	return out
}

// ViolationError reports the invariant violations recorded across a set
// of worlds.
type ViolationError struct {
	// Count totals the violations, including any past a checker's
	// retention cap.
	Count int
	// Violations lists the retained violations, each labelled with its
	// recording's seed.
	Violations []string
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("%d invariant violations", e.Count)
}

// Check returns a *ViolationError listing what the recordings' checkers
// found (recordings as returned by Collector.Recordings, in canonical
// order), or nil when every world kept every invariant.
func Check(recs []*Recording) error {
	var e ViolationError
	for _, r := range recs {
		e.Count += r.Recorder.checker.Count()
		for _, v := range r.Recorder.checker.Violations() {
			e.Violations = append(e.Violations, fmt.Sprintf("seed=%d %s", r.Seed, v))
		}
	}
	if e.Count == 0 {
		return nil
	}
	return &e
}

// ViolationCount totals checker findings across all recordings.
func (c *Collector) ViolationCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.recs {
		n += r.Recorder.checker.Count()
	}
	return n
}

// compareStreams orders two recorders by their retained event streams,
// walking both rings in place from their oldest slots. Equal events are
// skipped without rendering them: == and the rendered compare in
// compareEvents agree on every event the simulator records (they could
// differ only on a signed-zero RSSIDBm).
func compareStreams(a, b *Recorder) int {
	i, j := a.next, b.next
	for range min(len(a.ring), len(b.ring)) {
		if ea, eb := &a.ring[i], &b.ring[j]; *ea != *eb {
			if c := compareEvents(ea, eb); c != 0 {
				return c
			}
		}
		if i++; i == len(a.ring) {
			i = 0
		}
		if j++; j == len(b.ring) {
			j = 0
		}
	}
	return cmp.Compare(len(a.ring), len(b.ring))
}

func compareEvents(a, b *Event) int {
	if a.At != b.At {
		if a.At < b.At {
			return -1
		}
		return 1
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	if a.Station != b.Station {
		if a.Station < b.Station {
			return -1
		}
		return 1
	}
	// Same (time, kind, station): fall back to the rendered line, which
	// covers every remaining field.
	return strings.Compare(a.String(), b.String())
}
