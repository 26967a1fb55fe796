//go:build !race

package cache

// raceEnabled reports that the race detector is instrumenting this
// build (it is not; see race_test.go).
const raceEnabled = false
