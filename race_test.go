//go:build race

package main_test

// raceEnabled reports whether the test binary carries race-detector
// instrumentation, which adds allocations of its own.
const raceEnabled = true
