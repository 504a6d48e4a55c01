//go:build race

package netd

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what it is given, on purpose, so the
// guards that count pool misses and allocations per call say nothing
// about the production build and skip.
const raceEnabled = true
