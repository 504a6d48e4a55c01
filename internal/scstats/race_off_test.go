//go:build !race

package scstats

const raceEnabled = false
