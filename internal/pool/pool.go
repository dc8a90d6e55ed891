// Package pool provides the chunked freelist arena behind every hot-path
// object pool in the simulator (MAC frames, transport packets, medium
// arrivals, wireline transfers). It generalizes the recycled-slab
// technique the event scheduler uses for its events: objects live in
// fixed-size chunks so their addresses stay stable, a freelist recycles
// released objects, and steady-state Get/Put never allocates.
//
// Arenas are single-goroutine by design, matching the scheduler they
// serve: one world, one goroutine, one set of arenas. Nothing here is
// safe for concurrent use.
//
// Build with `-tags pooldebug` to enable lifecycle checking: every Put is
// verified against the freelist (double-free panics) and the optional
// poison hook scribbles sentinel values over released objects so
// use-after-release surfaces as wild field values instead of silent
// corruption.
package pool

// DefaultChunkSize is the number of objects per slab when NewArena is
// given a non-positive chunk size. It matches the scheduler's event
// chunk size.
const DefaultChunkSize = 256

// Stats is a point-in-time snapshot of an arena's (or arena-like pool's)
// occupancy, in the style of the scheduler's growth counters.
type Stats struct {
	// Chunks is how many slabs have been allocated since construction.
	Chunks int `json:"chunks"`
	// ChunkSize is the number of objects per slab.
	ChunkSize int `json:"chunk_size"`
	// Live is the number of objects currently handed out (Get minus Put).
	Live int `json:"live"`
	// Free is the number of objects waiting on the freelist.
	Free int `json:"free"`
	// Gets and Puts count lifetime checkouts and returns.
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
}

// Arena is a chunked freelist allocator for T. The zero value is not
// useful; construct with NewArena.
type Arena[T any] struct {
	free      []*T
	chunkSize int
	chunks    int
	gets      uint64
	puts      uint64
	init      func(*T)
	poison    func(*T)
	guard     guard
}

// NewArena builds an arena that allocates chunkSize objects per slab
// (DefaultChunkSize when chunkSize <= 0). If init is non-nil it runs
// exactly once per object, when the object's chunk is first allocated —
// the place to bind method-value handlers so per-use setup stays
// allocation-free.
func NewArena[T any](chunkSize int, init func(*T)) *Arena[T] {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	a := &Arena[T]{chunkSize: chunkSize, init: init}
	a.guard.init()
	return a
}

// SetPoison registers a hook that scribbles sentinel values over an
// object as it is released. The hook only runs under the pooldebug build
// tag; release stays cheap in normal builds.
func (a *Arena[T]) SetPoison(poison func(*T)) { a.poison = poison }

// Get hands out an object, growing the slab by one chunk only when every
// previously allocated object is live. The object's contents are
// whatever the previous user (or init) left — callers reset what they
// use.
func (a *Arena[T]) Get() *T {
	if len(a.free) == 0 {
		a.grow()
	}
	n := len(a.free) - 1
	x := a.free[n]
	a.free[n] = nil
	a.free = a.free[:n]
	a.gets++
	if DebugEnabled {
		a.guard.onGet(x)
	}
	return x
}

// Put returns an object to the freelist. The caller must not touch the
// object afterward; under pooldebug a second Put of the same object
// panics and the poison hook (if set) overwrites its fields.
func (a *Arena[T]) Put(x *T) {
	if DebugEnabled {
		if a.guard.onPut(x) {
			panic("pool: object released twice")
		}
		if a.poison != nil {
			a.poison(x)
		}
	}
	a.puts++
	a.free = append(a.free, x)
}

// Stats reports the arena's current occupancy.
func (a *Arena[T]) Stats() Stats {
	return Stats{
		Chunks:    a.chunks,
		ChunkSize: a.chunkSize,
		Live:      a.chunks*a.chunkSize - len(a.free),
		Free:      len(a.free),
		Gets:      a.gets,
		Puts:      a.puts,
	}
}

func (a *Arena[T]) grow() {
	chunk := make([]T, a.chunkSize)
	a.chunks++
	for i := range chunk {
		x := &chunk[i]
		if a.init != nil {
			a.init(x)
		}
		if DebugEnabled {
			a.guard.onGrow(x)
		}
		a.free = append(a.free, x)
	}
}
