//go:build !race

package netd

const raceEnabled = false
