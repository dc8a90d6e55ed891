package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"greedy80211/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans nest workload → pass → layer call; every span of a pass
// carries that pass's id.
type span struct {
	id, parent, pass int
	layer, name      string
	start, end       time.Duration // since the tracer's epoch
	cpu              time.Duration // process CPU over the span, when measured
}

// tracer keeps spans in memory for one traced run. A nil *tracer is the
// untraced mode: every method is a no-op that still runs the wrapped call.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	pass    int // current pass id
	current int // innermost open span of the pass goroutine
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.open(0, "bench", "workload")
	return t
}

// open starts a span under parent (0: the current span) and returns its id.
func (t *tracer) open(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.current
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, pass: t.pass,
		layer: layer, name: name, start: now, end: -1})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// beginPass opens the span of pass n under the workload span.
func (t *tracer) beginPass(n int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.pass = n
	t.current = 1
	t.mu.Unlock()
	id := t.open(1, "bench", fmt.Sprintf("pass %d", n))
	t.mu.Lock()
	t.current = id
	t.mu.Unlock()
	return id
}

// callTimes is what call measured: wall and process CPU over the span.
type callTimes struct{ wall, cpu time.Duration }

// call runs fn inside a span of the current pass and returns its wall
// and CPU time. Untraced, it runs fn and measures nothing.
func (t *tracer) call(layer, name string, fn func() error) (callTimes, error) {
	if t == nil {
		return callTimes{}, fn()
	}
	id := t.open(0, layer, name)
	t.mu.Lock()
	outer := t.current
	t.current = id
	t.mu.Unlock()
	sw := startWatch()
	err := fn()
	wall, cpu := sw.stop()
	t.close(id)
	t.mu.Lock()
	t.current = outer
	t.spans[id-1].cpu = cpu
	t.mu.Unlock()
	return callTimes{wall: wall, cpu: cpu}, err
}

// snapshot returns a copy of the spans, closing any still open at now.
func (t *tracer) snapshot() []span {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover, for the spans of pass n.
func selfTimes(spans []span, n int) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.pass == n {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.pass != n || s.id == 1 {
			continue
		}
		out[s.layer] += s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// writeChrome renders the spans as Perfetto-loadable Chrome trace JSON.
// Each layer gets a track; spans of one layer that overlap in time
// (parallel store calls) spill onto numbered lanes of that layer.
func writeChrome(w io.Writer, process string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	lanes := map[string][]time.Duration{} // layer → end of the last span on each lane
	out := make([]trace.Span, 0, len(sorted))
	for _, s := range sorted {
		ends := lanes[s.layer]
		lane := 0
		for lane < len(ends) && ends[lane] > s.start {
			lane++
		}
		if lane == len(ends) {
			ends = append(ends, 0)
		}
		ends[lane] = s.end
		lanes[s.layer] = ends
		track := s.layer
		if lane > 0 {
			track = fmt.Sprintf("%s/%d", s.layer, lane)
		}
		args := map[string]any{"id": s.id, "parent": s.parent, "pass": s.pass}
		if s.cpu > 0 {
			args["cpu_s"] = s.cpu.Seconds()
		}
		out = append(out, trace.Span{
			Track:   track,
			Name:    s.name,
			Cat:     s.layer,
			StartUs: float64(s.start) / 1e3,
			DurUs:   float64(s.end-s.start) / 1e3,
			Args:    args,
		})
	}
	return trace.WriteChromeSpans(w, process, out)
}
