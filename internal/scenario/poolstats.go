package scenario

import (
	"fmt"
	"strings"
	"sync"

	"greedy80211/internal/pool"
)

// PoolStats is the observability snapshot of every recycler a world
// runs on: the frame and packet pools, the medium's arrival arena, and
// the scheduler's event slab. Chunks-grown counts expose steady-state
// growth regressions; live counts at end-of-run expose leaks beyond the
// documented leak-to-GC cases (retry-dropped MSDUs, traffic truncated by
// the horizon).
type PoolStats struct {
	Frames   pool.Stats `json:"frames"`
	Packets  pool.Stats `json:"packets"`
	Arrivals pool.Stats `json:"arrivals"`
	Events   pool.Stats `json:"events"`
}

// PoolStats reports the world's current pool occupancy.
func (w *World) PoolStats() PoolStats {
	return PoolStats{
		Frames:   w.frames.Stats(),
		Packets:  w.packets.Stats(),
		Arrivals: w.Medium.ArrivalStats(),
		Events:   w.Sched.Stats(),
	}
}

// PoolReport aggregates PoolStats across many worlds (seeds, artifacts)
// for the -metrics observability surface. It is safe for concurrent use;
// parallel runners fold worlds in as they finish. Pool telemetry is
// reported on stdout only — it never enters metrics sidecars or result
// JSON, which must stay byte-identical with pooling on, off, or absent.
type PoolReport struct {
	mu     sync.Mutex
	worlds int
	sum    PoolStats
	max    PoolStats
}

// Add folds one world's stats into the report.
func (r *PoolReport) Add(s PoolStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.worlds++
	addStats(&r.sum.Frames, &r.max.Frames, s.Frames)
	addStats(&r.sum.Packets, &r.max.Packets, s.Packets)
	addStats(&r.sum.Arrivals, &r.max.Arrivals, s.Arrivals)
	addStats(&r.sum.Events, &r.max.Events, s.Events)
}

func addStats(sum, max *pool.Stats, s pool.Stats) {
	sum.Chunks += s.Chunks
	sum.ChunkSize = s.ChunkSize
	sum.Live += s.Live
	sum.Free += s.Free
	sum.Gets += s.Gets
	sum.Puts += s.Puts
	if s.Chunks > max.Chunks {
		max.Chunks = s.Chunks
	}
	if s.Live > max.Live {
		max.Live = s.Live
	}
}

// Worlds reports how many worlds have been folded in.
func (r *PoolReport) Worlds() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.worlds
}

// Sum reports each pool's stats summed over the worlds folded in.
func (r *PoolReport) Sum() PoolStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

// String renders a one-line-per-pool summary.
func (r *PoolReport) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "pool stats over %d worlds:\n", r.worlds)
	row := func(name string, sum, max pool.Stats) {
		fmt.Fprintf(&b, "  %-8s gets=%d puts=%d chunks=%d (max %d/world, %d objs) leaked=%d\n",
			name, sum.Gets, sum.Puts, sum.Chunks, max.Chunks, max.Chunks*sum.ChunkSize, sum.Live)
	}
	row("frames", r.sum.Frames, r.max.Frames)
	row("packets", r.sum.Packets, r.max.Packets)
	row("arrivals", r.sum.Arrivals, r.max.Arrivals)
	row("events", r.sum.Events, r.max.Events)
	return strings.TrimRight(b.String(), "\n")
}
