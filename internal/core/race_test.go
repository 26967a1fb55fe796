//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this
// build. Allocation-count pins skip under it: instrumentation perturbs
// what the runtime attributes to the measured function.
const raceEnabled = true
