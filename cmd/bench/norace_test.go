//go:build !race

package main

// raceEnabled reports whether the test binary carries race-detector
// instrumentation, which adds allocations of its own.
const raceEnabled = false
