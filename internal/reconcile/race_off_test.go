//go:build !race

package reconcile

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
