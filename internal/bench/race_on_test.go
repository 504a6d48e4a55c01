//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in, so
// nanosecond-margin timing guards can skip: race instrumentation turns
// the striped atomic adds being priced into function calls, which says
// nothing about the production-build budget.
const raceEnabled = true
