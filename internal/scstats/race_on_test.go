//go:build race

package scstats

// raceEnabled reports whether the race detector is compiled in: it turns
// every atomic the record cost guard prices into a function call.
const raceEnabled = true
