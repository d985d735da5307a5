//go:build race

package nomloc_test

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates.
const raceEnabled = true
